package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"probnucleus/internal/dataset"
	"probnucleus/internal/fixtures"
	"probnucleus/internal/obs"
	"probnucleus/internal/probgraph"
)

// TestWindowSizeDerivation pins the MemBudget→Window arithmetic: one world's
// mask row is ⌈union/64⌉×8 bytes, the window is however many rows the budget
// holds, an explicit Window always wins, and the result is clamped to [1, n].
func TestWindowSizeDerivation(t *testing.T) {
	cases := []struct {
		name   string
		window int
		budget int64
		n      int
		union  int
		want   int
	}{
		{"default-full-bank", 0, 0, 100, 640, 100},
		{"explicit-window-wins", 7, 1 << 30, 100, 640, 7},
		{"budget-ten-rows", 0, 800, 100, 640, 10}, // 640 edges → 10 words → 80 B/row
		{"budget-below-one-row", 0, 79, 100, 640, 1},
		{"budget-exceeds-bank", 0, 1 << 40, 100, 640, 100},
		{"empty-union-one-word-rows", 0, 160, 100, 0, 20},
		{"single-world", 0, 8, 1, 1, 1},
		{"budget-one-row-exactly", 0, 80, 100, 640, 1},
	}
	for _, c := range cases {
		o := NucleiRequest{Window: c.window, MemBudget: c.budget}
		if got := o.windowSize(c.n, c.union); got != c.want {
			t.Errorf("%s: windowSize(%d, %d) with Window=%d MemBudget=%d = %d, want %d",
				c.name, c.n, c.union, c.window, c.budget, got, c.want)
		}
	}
}

// TestNegativeMemBudgetRejected: a negative budget is a malformed request,
// reported as ErrBadSampleSpec by Validate before any work runs.
func TestNegativeMemBudgetRejected(t *testing.T) {
	req := NucleiRequest{K: 1, Theta: 0.3, Samples: 8, MemBudget: -1}
	if err := req.Validate(); !errors.Is(err, ErrBadSampleSpec) {
		t.Fatalf("Validate() = %v, want ErrBadSampleSpec", err)
	}
}

// membudgetCase is one graph the budgeted differential runs over.
type membudgetCase struct {
	name    string
	pg      *probgraph.Graph
	k       int
	theta   float64
	samples int
	seed    int64
}

func membudgetCases() []membudgetCase {
	return []membudgetCase{
		{"fig1", fixtures.Fig1(), 1, 0.35, 96, 5},
		{"krogan", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))), 1, 0.001, 96, 1},
	}
}

// runBudgeted serves one budgeted nuclei request on a fresh single-shard
// engine and returns the nuclei plus the engine's observed peak bank bytes.
func runBudgeted(t *testing.T, c membudgetCase, budget int64, weak bool) ([]ProbNucleus, int64) {
	t.Helper()
	m := new(obs.Metrics)
	e := NewEngine(1, 1, WithObserver(m))
	defer e.Close()
	pre := mustPrepare(t, e, c.pg)
	req := NucleiRequest{K: c.k, Theta: c.theta, Samples: c.samples, Seed: c.seed, MemBudget: budget}
	var (
		out []ProbNucleus
		err error
	)
	if weak {
		out, err = e.WeakPrepared(context.Background(), pre, req)
	} else {
		out, err = e.GlobalPrepared(context.Background(), pre, req)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out, m.Snapshot().BankPeakBytes
}

// TestMemBudgetBoundsBankPeak: serving a nuclei request with a MemBudget
// keeps the shard's peak world-bank allocation within the budget (or within
// one mask row when the budget cannot hold even one world), while returning
// nuclei byte-identical to the unbudgeted run — the adaptive window only
// re-times the identical windowed sampling.
func TestMemBudgetBoundsBankPeak(t *testing.T) {
	for _, c := range membudgetCases() {
		for _, weak := range []bool{false, true} {
			kind := "global"
			if weak {
				kind = "weak"
			}
			base, peak0 := runBudgeted(t, c, 0, weak)
			if peak0 == 0 {
				t.Fatalf("%s/%s: unbudgeted run drew no world bank; test is vacuous", c.name, kind)
			}
			// The unbudgeted run draws the full bank in one window of
			// c.samples worlds, so one world's mask row is peak0/samples
			// bytes — the floor below which no budget can bound the peak.
			rowBytes := peak0 / int64(c.samples)
			budgets := []int64{3*rowBytes + 1, peak0 / 2}
			if c.name == "fig1" {
				// Sub-row budgets degrade to single-world windows — the
				// slowest geometry, exercised on the small fixture only.
				budgets = append(budgets, rowBytes-1, rowBytes)
			}
			for _, budget := range budgets {
				if budget <= 0 {
					continue
				}
				got, peak := runBudgeted(t, c, budget, weak)
				if !reflect.DeepEqual(got, base) {
					t.Errorf("%s/%s membudget=%d: nuclei differ from unbudgeted run:\n got %+v\nwant %+v",
						c.name, kind, budget, got, base)
				}
				allowed := budget
				if allowed < rowBytes {
					allowed = rowBytes
				}
				if peak > allowed {
					t.Errorf("%s/%s membudget=%d: peak bank bytes %d exceeds allowed %d (row=%d)",
						c.name, kind, budget, peak, allowed, rowBytes)
				}
				if peak >= peak0 {
					t.Errorf("%s/%s membudget=%d: peak %d not reduced from unbudgeted %d; budget had no effect",
						c.name, kind, budget, peak, peak0)
				}
			}
		}
	}
}
