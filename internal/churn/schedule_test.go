package churn

import (
	"math/rand"
	"testing"
)

func TestNewScheduleValidation(t *testing.T) {
	if _, err := NewSchedule(nil); err == nil {
		t.Fatal("nil base accepted")
	}
	bad := []Event{
		{Round: -1, Kind: Knockout, Fraction: 1},
		{Round: 0, Kind: Knockout, Fraction: -0.1},
		{Round: 0, Kind: Knockout, Fraction: 1.1},
		{Round: 0, Kind: EventKind(99), Fraction: 1},
	}
	for _, ev := range bad {
		if _, err := NewSchedule(Static{}, ev); err == nil {
			t.Fatalf("event %+v accepted", ev)
		}
	}
}

// TestScheduleEventOrdering checks that events sort by round while same-round
// events keep their construction order (stable sort).
func TestScheduleEventOrdering(t *testing.T) {
	s, err := NewSchedule(Static{},
		Event{Round: 10, Kind: Revive, Fraction: 1},
		Event{Round: 5, Kind: Knockout, Fraction: 1},
		Event{Round: 10, Kind: Knockout, Fraction: 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Events()
	want := []Event{
		{Round: 5, Kind: Knockout, Fraction: 1},
		{Round: 10, Kind: Revive, Fraction: 1},
		{Round: 10, Kind: Knockout, Fraction: 0.5},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestScheduleSameRoundSequence checks that same-round events apply in order,
// each seeing the previous one's outcome: Revive(1) then Knockout(1) on an
// offline peer revives it and immediately knocks it out again.
func TestScheduleSameRoundSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, err := NewSchedule(Static{},
		Event{Round: 3, Kind: Revive, Fraction: 1},
		Event{Round: 3, Kind: Knockout, Fraction: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginRound(3)
	if got := s.Next(0, Offline, rng); got != Offline {
		t.Fatalf("revive-then-knockout left peer %v, want offline", got)
	}

	// The reverse order ends online: knockout first (no-op on an offline
	// peer), then revive.
	s2, err := NewSchedule(Static{},
		Event{Round: 3, Kind: Knockout, Fraction: 1},
		Event{Round: 3, Kind: Revive, Fraction: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	s2.BeginRound(3)
	if got := s2.Next(0, Offline, rng); got != Online {
		t.Fatalf("knockout-then-revive left peer %v, want online", got)
	}
}

// TestScheduleRounds checks events only fire on their round.
func TestScheduleRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, err := NewSchedule(Static{}, Event{Round: 2, Kind: Knockout, Fraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		s.BeginRound(round)
		got := s.Next(0, Online, rng)
		want := Online
		if round == 2 {
			want = Offline
		}
		if got != want {
			t.Fatalf("round %d: state %v, want %v", round, got, want)
		}
	}
}

// TestSchedulePopulation drives a Schedule through Population.Step, checking
// the RoundAware dispatch: a full knockout at round 2 and a full revival at
// round 4 are visible in the online counts.
func TestSchedulePopulation(t *testing.T) {
	s, err := NewSchedule(Static{},
		Event{Round: 2, Kind: Knockout, Fraction: 1},
		Event{Round: 4, Kind: Revive, Fraction: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	pop, err := NewPopulation(10, 10, s, rng)
	if err != nil {
		t.Fatal(err)
	}
	wantOnline := map[int]int{1: 10, 2: 0, 3: 0, 4: 10, 5: 10}
	for round := 1; round <= 5; round++ {
		came := pop.Step(round)
		if got := pop.OnlineCount(); got != wantOnline[round] {
			t.Fatalf("round %d: %d online, want %d", round, got, wantOnline[round])
		}
		if round == 4 && len(came) != 10 {
			t.Fatalf("round 4: %d came online, want 10", len(came))
		}
	}
}

// TestScheduleForwardsBeginRound checks that a Schedule stacked on another
// round-aware process forwards BeginRound to it.
func TestScheduleForwardsBeginRound(t *testing.T) {
	inner, err := NewSchedule(Static{}, Event{Round: 1, Kind: Knockout, Fraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSchedule(inner, Event{Round: 3, Kind: Revive, Fraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	pop, err := NewPopulation(4, 4, s, rng)
	if err != nil {
		t.Fatal(err)
	}
	pop.Step(1) // the inner knockout fires only if BeginRound reached it
	if got := pop.OnlineCount(); got != 0 {
		t.Fatalf("round 1: %d online, want 0 (inner schedule missed BeginRound)", got)
	}
	pop.Step(2)
	pop.Step(3) // schedule's own revival
	if got := pop.OnlineCount(); got != 4 {
		t.Fatalf("round 3: %d online, want 4", got)
	}
}

// TestScheduleKnockoutGolden pins the draws of a one-knockout Schedule: per
// peer the base process draws first, then one coin against Fraction in the
// event round, for a peer the base left online. The per-round online sets
// below were recorded from the single-knockout wrapper this Schedule
// replaced, at Bernoulli{Sigma: 0.8, POn: 0.4}, At 2, Fraction 0.5, 10 peers
// of which 7 start online; one string per round 0-5, '1' for online.
func TestScheduleKnockoutGolden(t *testing.T) {
	want := map[int64][]string{
		1: {"1011111111", "1011111111", "0000001011", "1011001011", "1010101011", "1110101110"},
		2: {"1111101111", "1011101110", "0010001010", "0011101011", "1001111111", "1101100111"},
		3: {"1101011010", "1101011010", "1101100010", "0101110111", "0011110111", "1001110011"},
	}
	for seed, rows := range want {
		s, err := NewSchedule(Bernoulli{Sigma: 0.8, POn: 0.4}, Event{Round: 2, Kind: Knockout, Fraction: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		pop, err := NewPopulation(10, 7, s, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for round, row := range rows {
			pop.Step(round)
			got := make([]byte, pop.Len())
			for i := range got {
				got[i] = '0'
				if pop.Online(i) {
					got[i] = '1'
				}
			}
			if string(got) != row {
				t.Fatalf("seed %d round %d: online %s, want %s", seed, round, got, row)
			}
		}
	}
}
