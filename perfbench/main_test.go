package main

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	pn "probnucleus"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond, ok := percentile(xs, 0.9); v != 90 || beyond != 10 || !ok {
		t.Fatalf("p90 of 1..100 = %v (%d beyond, ok=%v), want 90 with 10 beyond", v, beyond, ok)
	}
	if v, beyond, ok := percentile(xs[:99], 0.9); v != 90 || beyond != 9 || ok {
		t.Fatalf("p90 of 1..99 = %v (%d beyond, ok=%v), want 90 with 9 beyond, not reportable", v, beyond, ok)
	}
	if v, beyond, ok := percentile(xs, 0.5); v != 50 || beyond != 50 || !ok {
		t.Fatalf("p50 of 1..100 = %v (%d beyond, ok=%v)", v, beyond, ok)
	}
	if _, _, ok := percentile(xs[:19], 0.5); ok {
		t.Fatal("p50 of 19 samples has 9 beyond it and must not be reportable")
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// testWorkload is a small graph with one request shape per semantics.
func testWorkload(setup setupKind, workers int) *workload {
	return &workload{
		name: "test", graphs: []graphSpec{{"krogan", 0.04}},
		setup: setup, clients: 1, shards: 1, workers: workers,
		cycle: func(seed int64) []op {
			return []op{
				{kind: opLocal, graph: "krogan", theta: 0.2},
				{kind: opGlobal, graph: "krogan", k: 1, theta: 0.3, samples: 20, seed: mcSeed(seed, 0)},
				{kind: opWeak, graph: "krogan", k: 1, theta: 0.1, samples: 20, seed: mcSeed(seed, 1)},
			}
		},
	}
}

func TestDigestsMatchReferenceFor1And2Workers(t *testing.T) {
	ctx := context.Background()
	in, err := makeInputs(testWorkload(setupParsePrepare, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := references(in, in.shapes())
	if err != nil {
		t.Fatal(err)
	}
	for _, sk := range []setupKind{setupParsePrepare, setupParsePut} {
		for _, workers := range []int{1, 2} {
			tg, err := setup(ctx, testWorkload(sk, workers), in, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range in.shapes() {
				r, err := tg.do(ctx, o, 0, 0)
				if err != nil {
					t.Fatalf("setup %d, %d workers, %s: %v", sk, workers, o, err)
				}
				if !check(o, r, refs, in) {
					t.Errorf("setup %d, %d workers, %s: digest differs from the package-level reference", sk, workers, o)
				}
			}
			tg.close()
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := makeInputs(w, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeInputs(w, 5)
		c, _ := makeInputs(w, 6)
		for name, g := range a.graphs {
			if !bytes.Equal(g.text, b.graphs[name].text) {
				t.Errorf("%s: seed 5 generated two different %s inputs", w.name, name)
			}
			if bytes.Equal(g.text, c.graphs[name].text) {
				t.Errorf("%s: seeds 5 and 6 generated the same %s input", w.name, name)
			}
			if g.want != c.graphs[name].want || g.cliques != c.graphs[name].cliques {
				t.Errorf("%s: %s sizes depend on the seed: %+v/%d vs %+v/%d", w.name, name,
					g.want, g.cliques, c.graphs[name].want, c.graphs[name].cliques)
			}
		}
		for cl := range a.cycles {
			for i := 0; i < 50; i++ {
				if a.opAt(cl, i) != b.opAt(cl, i) {
					t.Fatalf("%s: client %d op %d differs between two runs of seed 5", w.name, cl, i)
				}
			}
		}
		if !reflect.DeepEqual(a.cycles, b.cycles) {
			t.Errorf("%s: seed 5 generated two different op cycles", w.name)
		}
		for _, o := range a.shapes() {
			if o.kind.isMC() && containsOp(c.shapes(), o) {
				t.Errorf("%s: %s kept its Monte-Carlo seed under another workload seed", w.name, o)
			}
		}
	}
}

func containsOp(ops []op, o op) bool {
	for _, x := range ops {
		if x == o {
			return true
		}
	}
	return false
}

func TestSeedZeroIsTheCalibratedDataset(t *testing.T) {
	in, err := makeInputs(testWorkload(setupParsePrepare, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := pn.MustDataset("krogan", 0.04).WriteEdgeList(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in.graphs["krogan"].text, want.Bytes()) {
		t.Fatal("seed 0 input differs from the calibrated krogan@0.04 edge list")
	}
}
