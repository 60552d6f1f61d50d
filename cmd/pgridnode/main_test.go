package main

import (
	"strings"
	"testing"
)

func TestNodeREPLCommands(t *testing.T) {
	script := strings.Join([]string{
		"put city Lausanne",
		"get city",
		"query city",
		"query",
		"keys",
		"peers",
		"pull",
		"del city",
		"get city",
		"badcmd",
		"put",
		"del",
		"get",
		"quit",
	}, "\n")
	var out strings.Builder
	err := run([]string{"-listen", "127.0.0.1:0", "-pull-interval", "50ms"},
		strings.NewReader(script), &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"replica listening on",
		"published",
		`city = "Lausanne"`,
		"usage: query <key>",
		"deleted via",
		"city not found",
		`unknown command "badcmd"`,
		"usage: put <key> <value>",
		"usage: del <key>",
		"usage: get <key>",
		"pull issued",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestNodeBootstrapPeers(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-listen", "127.0.0.1:0", "-peers", "10.0.0.1:1,10.0.0.2:2"},
		strings.NewReader("peers\nquit\n"), &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "10.0.0.1:1 10.0.0.2:2") {
		t.Fatalf("bootstrap peers missing:\n%s", out.String())
	}
}

func TestNodeBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-pf", "junk"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("bad schedule should error")
	}
	if err := run([]string{"-listen", "999.999.999.999:1"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("bad listen address should error")
	}
}

func TestNodeWALPersistence(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{"-listen", "127.0.0.1:0", "-wal-dir", dir},
		strings.NewReader("put motto persistence\nquit\n"), &out)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	// Second process recovers the state from the WAL.
	out.Reset()
	err = run([]string{"-listen", "127.0.0.1:0", "-wal-dir", dir},
		strings.NewReader("get motto\nquit\n"), &out)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !strings.Contains(out.String(), `motto = "persistence"`) {
		t.Fatalf("state not restored:\n%s", out.String())
	}
}
