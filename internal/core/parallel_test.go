package core

import (
	"reflect"
	"testing"

	"probnucleus/internal/dataset"
	"probnucleus/internal/fixtures"
	"probnucleus/internal/pbd"
	"probnucleus/internal/probgraph"
)

// The differential suite: every decomposition result must be byte-equal to
// the serial (Workers=1) run for these worker counts.
var diffWorkerCounts = []int{1, 2, 8}

// diffGraphs returns the fixture graphs plus two generated datasets, the
// corpus every differential test runs over.
func diffGraphs() map[string]*probgraph.Graph {
	return map[string]*probgraph.Graph{
		"fig1":   fixtures.Fig1(),
		"k5":     fixtures.Fig3cK5(),
		"krogan": dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.08))),
		"dblp":   dataset.Generate(dataset.MustLoad("dblp", dataset.Scale(0.06))),
	}
}

// TestLocalDecomposeDifferential: parallel ℓ-NuDecomp is byte-equal to the
// serial run — nucleusness vector, triangle order, and AP method tallies —
// for workers ∈ {1, 2, 8}, in both DP and AP modes.
func TestLocalDecomposeDifferential(t *testing.T) {
	for name, pg := range diffGraphs() {
		for _, mode := range []Mode{ModeDP, ModeAP} {
			for _, theta := range []float64{0.1, 0.4} {
				baseCounts := map[pbd.Method]int{}
				base, err := LocalDecompose(pg, theta, Options{Mode: mode, Workers: 1, MethodCounts: baseCounts})
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range diffWorkerCounts[1:] {
					counts := map[pbd.Method]int{}
					got, err := LocalDecompose(pg, theta, Options{Mode: mode, Workers: w, MethodCounts: counts})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Nucleusness, base.Nucleusness) {
						t.Errorf("%s mode=%v θ=%v workers=%d: nucleusness differs from serial",
							name, mode, theta, w)
					}
					if !reflect.DeepEqual(got.TI.Tris, base.TI.Tris) {
						t.Errorf("%s mode=%v θ=%v workers=%d: triangle order differs from serial",
							name, mode, theta, w)
					}
					if !reflect.DeepEqual(counts, baseCounts) {
						t.Errorf("%s mode=%v θ=%v workers=%d: method tallies %v differ from serial %v",
							name, mode, theta, w, counts, baseCounts)
					}
				}
			}
		}
	}
}

// TestInitialKappaDifferential: the pre-peeling κ scores are byte-equal for
// every worker count.
func TestInitialKappaDifferential(t *testing.T) {
	for name, pg := range diffGraphs() {
		for _, mode := range []Mode{ModeDP, ModeAP} {
			_, base, err := initialKappa(pg, 0.2, Options{Mode: mode, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range diffWorkerCounts[1:] {
				_, got, err := initialKappa(pg, 0.2, Options{Mode: mode, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("%s mode=%v workers=%d: initial κ differs from serial", name, mode, w)
				}
			}
		}
	}
}

// mcDiffCases is the corpus the global/weak differential tests run over: the
// paper fixture plus two generated datasets exercising non-trivial candidate
// spaces (multiple candidates, dedup hits, rejected candidates), krogan also
// at k = 2 and 3, where support needs more than one clique.
func mcDiffCases() []struct {
	name    string
	pg      *probgraph.Graph
	k       int
	theta   float64
	samples int
	seed    int64
} {
	return []struct {
		name    string
		pg      *probgraph.Graph
		k       int
		theta   float64
		samples int
		seed    int64
	}{
		{"fig1", fixtures.Fig1(), 1, 0.35, 500, 5},
		{"krogan", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))), 1, 0.001, 100, 1},
		{"krogan-k2", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))), 2, 0.001, 100, 1},
		{"krogan-k3", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))), 3, 0.001, 100, 1},
		{"dblp", dataset.Generate(dataset.MustLoad("dblp", dataset.Scale(0.025))), 1, 0.001, 60, 3},
	}
}

// TestGlobalNucleiDifferential: the Monte-Carlo global decomposition returns
// identical nuclei (including the estimated MinProb) for every worker count,
// because worlds come from chunk-derived PRNG streams and per-world counts
// merge commutatively.
func TestGlobalNucleiDifferential(t *testing.T) {
	for _, c := range mcDiffCases() {
		base, err := GlobalNuclei(c.pg, c.k, c.theta, MCOptions{Samples: c.samples, Seed: c.seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if c.name == "fig1" && len(base) == 0 {
			t.Fatal("serial run found no nuclei; differential test is vacuous")
		}
		for _, w := range diffWorkerCounts[1:] {
			got, err := GlobalNuclei(c.pg, c.k, c.theta, MCOptions{Samples: c.samples, Seed: c.seed, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Errorf("%s workers=%d: global nuclei differ from serial:\n got %+v\nwant %+v", c.name, w, got, base)
			}
		}
	}
}

// TestWeaklyGlobalNucleiDifferential: same contract for w-NuDecomp.
func TestWeaklyGlobalNucleiDifferential(t *testing.T) {
	for _, c := range mcDiffCases() {
		theta := c.theta
		if c.name == "fig1" {
			theta = 0.38
		}
		base, err := WeaklyGlobalNuclei(c.pg, c.k, theta, MCOptions{Samples: c.samples, Seed: c.seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if c.name == "fig1" && len(base) == 0 {
			t.Fatal("serial run found no nuclei; differential test is vacuous")
		}
		for _, w := range diffWorkerCounts[1:] {
			got, err := WeaklyGlobalNuclei(c.pg, c.k, theta, MCOptions{Samples: c.samples, Seed: c.seed, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Errorf("%s workers=%d: weak nuclei differ from serial:\n got %+v\nwant %+v", c.name, w, got, base)
			}
		}
	}
}

// TestDefaultWorkersMatchesSerial: the Workers=0 default (GOMAXPROCS) also
// reproduces the serial result — the contract is for every worker count, not
// just the ones enumerated above.
func TestDefaultWorkersMatchesSerial(t *testing.T) {
	pg := fixtures.Fig1()
	base, err := LocalDecompose(pg, 0.3, Options{Mode: ModeDP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := LocalDecompose(pg, 0.3, Options{Mode: ModeDP})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Nucleusness, base.Nucleusness) {
		t.Error("Workers=0 nucleusness differs from serial")
	}
}
