package experiments

import (
	"fmt"

	"github.com/p2pgossip/update/internal/analytic"
	"github.com/p2pgossip/update/internal/metrics"
	"github.com/p2pgossip/update/internal/pf"
)

// Table2Row is one row of the paper's Table 2 with both the paper's
// reported value and ours.
type Table2Row struct {
	Scheme     string
	Paper      float64
	PaperRound int
	Ours       float64
	OursRound  int
	FinalAware float64
}

// Table2Block is one of the two scenarios of Table 2.
type Table2Block struct {
	// Caption describes the scenario parameters.
	Caption string
	Rows    []Table2Row
}

// Table2 evaluates both Table 2 scenarios analytically and pairs each
// scheme with the paper's reported numbers.
//
// Scenario parameters (reconstructed from §5.6): top block — all 1000
// replicas online, σ=1, fanout 4 (f_r = 0.004), ours = PF(t)=0.9^t; bottom
// block — 100 of 1000 online, σ=1, fanout 40 (f_r = 0.04, four expected
// online targets), ours = PF(t)=0.8^t.
func Table2() ([]Table2Block, error) {
	type scenario struct {
		caption     string
		params      analytic.CompareParams
		paperValues map[analytic.Scheme]float64
		paperRounds map[analytic.Scheme]int
	}
	scenarios := []scenario{
		{
			caption: "R_on/R = 10^3/10^3, sigma = 1, fanout 4 (f_r = 0.004)",
			params: analytic.CompareParams{
				R: 1000, ROn0: 1000, Sigma: 1, Fr: 0.004,
				HaasP: 0.8, HaasK: 2,
				OursPF:      pf.Geometric{Base: 0.9},
				AwareTarget: 0.9,
			},
			paperValues: map[analytic.Scheme]float64{
				analytic.SchemeGnutella:    4,
				analytic.SchemePartialList: 3.92,
				analytic.SchemeHaas:        3.136,
				analytic.SchemeOurs:        2.215,
			},
			paperRounds: map[analytic.Scheme]int{
				analytic.SchemeGnutella:    7,
				analytic.SchemePartialList: 7,
				analytic.SchemeHaas:        7,
				analytic.SchemeOurs:        8,
			},
		},
		{
			caption: "R_on/R = 10^2/10^3, sigma = 1, fanout 40 (f_r = 0.04)",
			params: analytic.CompareParams{
				R: 1000, ROn0: 100, Sigma: 1, Fr: 0.04,
				HaasP: 0.8, HaasK: 2,
				OursPF:      pf.Geometric{Base: 0.8},
				AwareTarget: 0.9,
			},
			paperValues: map[analytic.Scheme]float64{
				analytic.SchemeGnutella:    40,
				analytic.SchemePartialList: 35.22,
				analytic.SchemeHaas:        28.49,
				analytic.SchemeOurs:        16.35,
			},
			paperRounds: map[analytic.Scheme]int{
				analytic.SchemeGnutella:    5,
				analytic.SchemePartialList: 5,
				analytic.SchemeHaas:        5,
				analytic.SchemeOurs:        6,
			},
		},
	}

	var blocks []Table2Block
	for _, sc := range scenarios {
		rows, err := analytic.Compare(sc.params)
		if err != nil {
			return nil, fmt.Errorf("table 2 (%s): %w", sc.caption, err)
		}
		block := Table2Block{Caption: sc.caption}
		for _, row := range rows {
			block.Rows = append(block.Rows, Table2Row{
				Scheme:     row.Scheme.String(),
				Paper:      sc.paperValues[row.Scheme],
				PaperRound: sc.paperRounds[row.Scheme],
				Ours:       row.MessagesPerPeer,
				OursRound:  row.Rounds,
				FinalAware: row.FinalAware,
			})
		}
		blocks = append(blocks, block)
	}
	return blocks, nil
}

// Table2Scheme is one of the four §5.6 schemes Table 2 compares, as push
// settings for the simulator.
type Table2Scheme struct {
	Scheme      analytic.Scheme
	NewPF       func() pf.Func
	PartialList bool
}

// Table2Schemes returns the four §5.6 schemes in Table 2's row order, with
// the top block's schedules: Gnutella floods for a 12-round TTL without and
// with the partial list, Haas et al. run GOSSIP1(0.8, 2) without it, and
// ours decays as 0.9^t with it.
func Table2Schemes() []Table2Scheme {
	ttl := func() pf.Func { return pf.TTL{Rounds: 12} }
	return []Table2Scheme{
		{analytic.SchemeGnutella, ttl, false},
		{analytic.SchemePartialList, ttl, true},
		{analytic.SchemeHaas, func() pf.Func { return pf.Haas{P1: 0.8, K: 2} }, false},
		{analytic.SchemeOurs, func() pf.Func { return pf.Geometric{Base: 0.9} }, true},
	}
}

// RenderTable2 prints the comparison as text tables.
func RenderTable2(blocks []Table2Block) string {
	out := ""
	for _, block := range blocks {
		tb := &metrics.Table{Header: []string{
			"Scheme", "paper msgs/peer", "ours msgs/peer",
			"paper rounds", "ours rounds", "final F_aware",
		}}
		for _, r := range block.Rows {
			tb.AddRow(r.Scheme, r.Paper, r.Ours, r.PaperRound, r.OursRound, r.FinalAware)
		}
		out += fmt.Sprintf("Table 2 — %s\n%s\n", block.Caption, tb.String())
	}
	return out
}
