package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"probnucleus/internal/bucket"
	"probnucleus/internal/decomp"
	"probnucleus/internal/pbd"
	"probnucleus/internal/probgraph"
)

// referenceLocalNucleusness is the pre-incremental scorer kept as a test
// oracle: every support query packs the live clique probabilities and runs
// the Poisson-binomial evaluation from scratch. LocalDecompose's
// incrementally-maintained distributions must reproduce its output byte for
// byte — that is the bit-compatibility contract of pbd.Dist's stability
// guard.
func referenceLocalNucleusness(pg *probgraph.Graph, theta float64, mode Mode) []int {
	hyper := pbd.DefaultHyper
	ca := decomp.NewCliqueAdj(pg.G)
	ti := ca.TI
	n := ti.Len()

	triProb := make([]float64, n)
	compProb := make([][]float64, n)
	for t := 0; t < n; t++ {
		tri := ti.Tris[t]
		triProb[t] = pg.TriangleProb(tri)
		zs := ti.Comps[t]
		ps := make([]float64, len(zs))
		for i, z := range zs {
			ps[i] = pg.Prob(tri.A, z) * pg.Prob(tri.B, z) * pg.Prob(tri.C, z)
		}
		compProb[t] = ps
	}

	score := func(t int32) int {
		var probs []float64
		for i := range compProb[t] {
			if ca.Alive(t, i) {
				probs = append(probs, compProb[t][i])
			}
		}
		thr := theta / triProb[t]
		if mode == ModeAP {
			k, _ := pbd.ApproxMaxK(probs, thr, hyper)
			return k
		}
		return pbd.MaxK(probs, thr)
	}

	nu := make([]int, n)
	for t := int32(0); int(t) < n; t++ {
		if triProb[t] < theta {
			nu[t] = -1
			ca.RemoveTriangle(t, nil)
		}
	}
	maxSup := 0
	for t := 0; t < n; t++ {
		if ca.AliveCount[t] > maxSup {
			maxSup = ca.AliveCount[t]
		}
	}
	q := bucket.New(n, maxSup)
	for t := int32(0); int(t) < n; t++ {
		if nu[t] != -1 {
			q.Push(t, score(t))
		}
	}
	floor := 0
	affected := map[int32]bool{}
	for q.Len() > 0 {
		t, k, _ := q.Pop()
		if k > floor {
			floor = k
		}
		nu[t] = floor
		clear(affected)
		ca.RemoveTriangle(t, func(o int32, _ int) {
			if q.Key(o) > floor {
				affected[o] = true
			}
		})
		todo := make([]int32, 0, len(affected))
		for o := range affected {
			todo = append(todo, o)
		}
		slices.Sort(todo)
		for _, o := range todo {
			nk := score(o)
			if nk < floor {
				nk = floor
			}
			if nk < q.Key(o) {
				q.Update(o, nk)
			}
		}
	}
	return nu
}

// highProbGraph generates a dense graph biased toward near-1 edge
// probabilities, so clique factors routinely land in the regime where
// deconvolution is unstable and the rebuild fallback must fire.
func highProbGraph(rng *rand.Rand, n int) *probgraph.Graph {
	var es []probgraph.ProbEdge
	for u := int32(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			if rng.Float64() < 0.7 {
				p := 1.0
				switch rng.Intn(4) {
				case 0:
					p = 1 - 1e-8
				case 1:
					p = 0.9 + 0.1*rng.Float64()
				case 2:
					p = 0.6 + 0.4*rng.Float64()
				default:
					p = 0.05 + 0.95*rng.Float64()
				}
				es = append(es, probgraph.ProbEdge{U: u, V: v, P: p})
			}
		}
	}
	return probgraph.MustNew(n, es)
}

// TestIncrementalMatchesFromScratch: LocalDecompose (incremental Dist
// maintenance) is byte-identical to the from-scratch reference scorer on the
// differential corpus and on high-probability random graphs, for DP and AP
// modes and workers ∈ {1, 2, 8}.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	graphs := diffGraphs()
	rng := rand.New(rand.NewSource(101))
	graphs["highprob-12"] = highProbGraph(rng, 12)
	graphs["highprob-16"] = highProbGraph(rng, 16)
	for name, pg := range graphs {
		for _, mode := range []Mode{ModeDP, ModeAP} {
			for _, theta := range []float64{0.05, 0.3, 0.7} {
				want := referenceLocalNucleusness(pg, theta, mode)
				for _, w := range diffWorkerCounts {
					got, err := LocalDecompose(pg, theta, Options{Mode: mode, Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Nucleusness, want) {
						t.Errorf("%s mode=%v θ=%v workers=%d: incremental nucleusness differs from from-scratch scorer",
							name, mode, theta, w)
					}
				}
			}
		}
	}
}

// TestIncrementalMatchesFromScratchRandom widens the corpus with random
// graphs across densities and probability regimes.
func TestIncrementalMatchesFromScratchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for iter := 0; iter < 12; iter++ {
		pg := randomProbGraph(rng, 10+rng.Intn(8), 0.4+0.4*rng.Float64())
		theta := 0.02 + 0.8*rng.Float64()
		for _, mode := range []Mode{ModeDP, ModeAP} {
			want := referenceLocalNucleusness(pg, theta, mode)
			for _, w := range diffWorkerCounts {
				got, err := LocalDecompose(pg, theta, Options{Mode: mode, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Nucleusness, want) {
					t.Errorf("iter %d mode=%v θ=%v workers=%d: incremental differs from from-scratch",
						iter, mode, theta, w)
				}
			}
		}
	}
}
