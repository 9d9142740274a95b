package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"probnucleus/internal/dataset"
	"probnucleus/internal/decomp"
	"probnucleus/internal/fixtures"
	"probnucleus/internal/graph"
	"probnucleus/internal/probgraph"
)

// relabeled returns an isomorphic copy of pg: every vertex v renamed to
// perm[v] for a seeded permutation perm, each edge listed with its
// endpoints in a random order, and the edge list shuffled.
func relabeled(rng *rand.Rand, pg *probgraph.Graph) ([]int32, *probgraph.Graph) {
	n := pg.NumVertices()
	perm := make([]int32, n)
	for v, p := range rng.Perm(n) {
		perm[v] = int32(p)
	}
	es := make([]probgraph.ProbEdge, 0, pg.NumEdges())
	for _, e := range pg.Edges() {
		u, v := perm[e.U], perm[e.V]
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		es = append(es, probgraph.ProbEdge{U: u, V: v, P: e.P})
	}
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return perm, probgraph.MustNew(n, es)
}

// TestRelabelingPreservesNucleusness is a metamorphic check: vertex ids and
// edge order carry no meaning, so on a relabeled, edge-shuffled copy of a
// graph the deterministic nucleus decomposition and DP-mode ℓ-NuDecomp must
// give every triangle, mapped through the relabeling, exactly the ν it had
// — whatever triangle ids, completion orders and peel orders the copy
// brings. The local ν is read through NucleusnessOf. The inputs are the
// paper's fixtures and krogan at scale 0.04, each under three relabelings.
func TestRelabelingPreservesNucleusness(t *testing.T) {
	inputs := []struct {
		name   string
		pg     *probgraph.Graph
		thetas []float64
	}{
		{"fig1", fixtures.Fig1(), []float64{0.1, 0.3, 0.42}},
		{"fig2a", fixtures.Fig2aNucleus(), []float64{0.1, 0.42}},
		{"fig3a", fixtures.Fig3aNucleus(), []float64{0.2, 0.5}},
		{"fig3b", fixtures.Fig3bNucleus(), []float64{0.2, 0.42}},
		{"fig3c-k5", fixtures.Fig3cK5(), []float64{0.006, 0.1, 0.5}},
		{"krogan@0.04", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))), []float64{0.1, 0.2, 0.3}},
	}
	checked := 0
	for _, in := range inputs {
		ti, nu := decomp.NucleusNumbers(in.pg.G)
		locals := make([]*LocalResult, len(in.thetas))
		for i, theta := range in.thetas {
			res, err := LocalDecompose(in.pg, theta, Options{Mode: ModeDP})
			if err != nil {
				t.Fatal(err)
			}
			locals[i] = res
		}
		for seed := int64(1); seed <= 3; seed++ {
			perm, rel := relabeled(rand.New(rand.NewSource(seed)), in.pg)
			mapped := func(tri graph.Triangle) graph.Triangle {
				return graph.MakeTriangle(perm[tri.A], perm[tri.B], perm[tri.C])
			}
			where := fmt.Sprintf("%s relabeling %d", in.name, seed)
			rti, rnu := decomp.NucleusNumbers(rel.G)
			if rti.Len() != ti.Len() {
				t.Fatalf("%s: %d triangles, original %d", where, rti.Len(), ti.Len())
			}
			for id, tri := range ti.Tris {
				rid, ok := rti.ID(mapped(tri))
				if !ok || rnu[rid] != nu[id] {
					t.Fatalf("%s: deterministic ν of %v is %d (found %v), original %d",
						where, mapped(tri), rnu[rid], ok, nu[id])
				}
			}
			for i, theta := range in.thetas {
				res, err := LocalDecompose(rel, theta, Options{Mode: ModeDP})
				if err != nil {
					t.Fatal(err)
				}
				orig := locals[i]
				for id, tri := range orig.TI.Tris {
					if got := res.NucleusnessOf(mapped(tri)); got != orig.Nucleusness[id] {
						t.Errorf("%s θ=%v: ℓ-ν of %v is %d, original %d",
							where, theta, mapped(tri), got, orig.Nucleusness[id])
					}
				}
				checked += len(orig.TI.Tris)
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d triangles compared", checked)
	}
}

// TestNucleusnessMonotoneInThetaDatasets is a metamorphic check: an
// ℓ-(k,θ')-nucleus is an ℓ-(k,θ)-nucleus for every θ < θ', so in DP mode
// no triangle's ν may rise as θ rises. TestNucleusnessMonotoneInTheta
// checks four thresholds on small random graphs; this one sweeps 21 on the
// paper's fixtures and three datasets, on one worker (ν does not depend on
// the worker count; the batch differential checks that). The
// level-synchronous peel's exactness rests on the same monotonicity — κ
// can only fall as cliques die — so a kernel that broke it would show here
// as well as in the differential against the sequential peel.
func TestNucleusnessMonotoneInThetaDatasets(t *testing.T) {
	if raceEnabled {
		// 126 one-worker peels give the race detector nothing to check;
		// under it they add about 23 s to the package.
		t.Skip("sequential θ sweep; run without -race")
	}
	thetas := []float64{0.001, 0.01}
	for i := 1; i <= 18; i++ {
		thetas = append(thetas, float64(i)*0.05)
	}
	thetas = append(thetas, 1)
	inputs := []struct {
		name string
		pg   *probgraph.Graph
	}{
		{"fig1", fixtures.Fig1()},
		{"k5", fixtures.Fig3cK5()},
		{"fig2a", fixtures.Fig2aNucleus()},
		{"krogan@0.04", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04)))},
		{"flickr@0.02", dataset.Generate(dataset.MustLoad("flickr", dataset.Scale(0.02)))},
		{"dblp@0.04", dataset.Generate(dataset.MustLoad("dblp", dataset.Scale(0.04)))},
	}
	for _, in := range inputs {
		var prev []int
		for _, theta := range thetas {
			res, err := LocalDecompose(in.pg, theta, Options{Mode: ModeDP, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for id, nu := range res.Nucleusness {
				if prev != nil && nu > prev[id] {
					t.Errorf("%s: ν of %v rises to %d at θ=%v, from %d below it",
						in.name, res.TI.Tris[id], nu, theta, prev[id])
				}
			}
			prev = res.Nucleusness
		}
	}
}

// TestNucleiMonotoneInTheta is a metamorphic check of g- and w-NuDecomp.
// Sampled outputs are not monotone in θ in general — the candidates, their
// edge union and so the worlds all follow the local decomposition at θ —
// but with one Local (computed at θ₀), one sample count and one seed, every
// θ ≥ θ₀ sees the same candidates and the same worlds, and θ only decides
// which estimates pass. Raising θ may then only shrink both outputs: every
// g-nucleus at the higher θ is one at the lower θ (so the union of their
// triangle sets shrinks), and the weak output's triangle set shrinks. Weak
// nuclei can split as triangles drop out, so the weak side compares
// triangle sets, not nucleus sets.
func TestNucleiMonotoneInTheta(t *testing.T) {
	type input struct {
		name   string
		pg     *probgraph.Graph
		theta0 float64
	}
	inputs := []input{
		{"fig1", fixtures.Fig1(), 0.01},
		{"k5", fixtures.Fig3cK5(), 0.01},
		{"fig2a", fixtures.Fig2aNucleus(), 0.01},
	}
	if !raceEnabled {
		// One-worker kernels give the race detector nothing to check.
		inputs = append(inputs,
			input{"krogan@0.04", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))), 0.001},
			input{"dblp@0.04", dataset.Generate(dataset.MustLoad("dblp", dataset.Scale(0.04))), 0.001})
	}
	thetas := []float64{0.05, 0.2, 0.4, 0.7, 1}
	triSet := func(nuclei []ProbNucleus) map[graph.Triangle]bool {
		set := make(map[graph.Triangle]bool)
		for _, nuc := range nuclei {
			for _, tri := range nuc.Triangles {
				set[tri] = true
			}
		}
		return set
	}
	for _, in := range inputs {
		local, err := LocalDecompose(in.pg, in.theta0, Options{Mode: ModeDP, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2} {
			opts := MCOptions{Samples: 100, Seed: 3, Local: local, Workers: 1}
			var prevG []ProbNucleus
			var prevGTris, prevWTris map[graph.Triangle]bool
			shrank := false
			for i, theta := range append([]float64{in.theta0}, thetas...) {
				g, err := GlobalNuclei(in.pg, k, theta, opts)
				if err != nil {
					t.Fatal(err)
				}
				w, err := WeaklyGlobalNuclei(in.pg, k, theta, opts)
				if err != nil {
					t.Fatal(err)
				}
				gTris, wTris := triSet(g), triSet(w)
				if i == 0 {
					t.Logf("%s k=%d θ₀=%v: %d g-nuclei over %d triangles, %d weak triangles",
						in.name, k, theta, len(g), len(gTris), len(wTris))
					if k == 1 && (len(gTris) == 0 || len(wTris) == 0) {
						t.Fatalf("%s k=1 θ₀=%v: empty output, nothing to compare", in.name, theta)
					}
				} else {
					shrank = shrank || len(gTris) < len(prevGTris) || len(wTris) < len(prevWTris)
					for _, nuc := range g {
						if !slices.ContainsFunc(prevG, func(p ProbNucleus) bool {
							return slices.Equal(p.Triangles, nuc.Triangles)
						}) {
							t.Errorf("%s k=%d θ=%v: g-nucleus on %v is not a g-nucleus below θ",
								in.name, k, theta, nuc.Vertices)
						}
					}
					for tri := range gTris {
						if !prevGTris[tri] {
							t.Errorf("%s k=%d θ=%v: g-nucleus triangle %v is in none below θ", in.name, k, theta, tri)
						}
					}
					for tri := range wTris {
						if !prevWTris[tri] {
							t.Errorf("%s k=%d θ=%v: weak triangle %v is not weak below θ", in.name, k, theta, tri)
						}
					}
				}
				prevG, prevGTris, prevWTris = g, gTris, wTris
			}
			if k == 1 && !shrank {
				t.Errorf("%s k=1: no output shrank from θ₀ to θ=1; the sweep checks nothing", in.name)
			}
		}
	}
}
