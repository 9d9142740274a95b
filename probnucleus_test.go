package probnucleus_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	pn "probnucleus"
)

func fig1() *pn.Graph {
	g, err := pn.NewGraph(8, []pn.ProbEdge{
		{U: 1, V: 2, P: 1}, {U: 1, V: 3, P: 1}, {U: 1, V: 4, P: 1}, {U: 1, V: 5, P: 1},
		{U: 2, V: 3, P: 1}, {U: 2, V: 5, P: 1},
		{U: 2, V: 4, P: 0.7}, {U: 3, V: 4, P: 0.6}, {U: 3, V: 5, P: 0.5},
		{U: 1, V: 7, P: 0.8}, {U: 4, V: 6, P: 0.8}, {U: 6, V: 7, P: 0.8},
	})
	if err != nil {
		panic(err)
	}
	return g
}

// TestPublicAPIEndToEnd drives the whole public surface the way the README
// quickstart does.
func TestPublicAPIEndToEnd(t *testing.T) {
	g := fig1()

	res, err := pn.LocalDecompose(g, 0.42, pn.Options{Mode: pn.ModeDP})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxNucleusness() != 1 {
		t.Errorf("max nucleusness = %d, want 1", res.MaxNucleusness())
	}
	nuclei := res.NucleiForK(1)
	if len(nuclei) != 1 || len(nuclei[0].Vertices) != 5 {
		t.Fatalf("NucleiForK(1) = %+v, want one 5-vertex nucleus", nuclei)
	}

	glob, err := pn.GlobalNuclei(g, 1, 0.35, pn.MCOptions{Samples: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(glob) != 2 {
		t.Errorf("global nuclei = %d, want 2 (Figure 3)", len(glob))
	}

	weak, err := pn.WeaklyGlobalNuclei(g, 1, 0.38, pn.MCOptions{Samples: 2000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(weak) != 1 {
		t.Errorf("weak nuclei = %d, want 1", len(weak))
	}

	if pd := pn.PD(g); !(pd > 0 && pd <= 1) {
		t.Errorf("PD = %v out of range", pd)
	}
	if pcc := pn.PCC(g); !(pcc > 0 && pcc <= 1) {
		t.Errorf("PCC = %v out of range", pcc)
	}

	cores, err := pn.CoreDecompose(g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if cores.MaxCore() < 2 {
		t.Errorf("MaxCore = %d, want ≥ 2", cores.MaxCore())
	}
	truss, err := pn.TrussDecompose(g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if truss.MaxTruss() < 1 {
		t.Errorf("MaxTruss = %d, want ≥ 1", truss.MaxTruss())
	}
}

// TestEnginePublicAPI drives the serving surface the way a server would:
// concurrent goroutines issuing mixed requests against one shared Engine,
// each result compared against the package-level function, plus per-request
// timeout contexts and sentinel-error validation.
func TestEnginePublicAPI(t *testing.T) {
	g := fig1()
	wantLocal, err := pn.LocalDecompose(g, 0.42, pn.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantGlob, err := pn.GlobalNuclei(g, 1, 0.35, pn.MCOptions{Samples: 500, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	eng := pn.NewEngine(2, 2)
	defer eng.Close()
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			pre, err := eng.Prepare(ctx, g)
			if err != nil {
				errc <- err
				return
			}
			local, err := eng.LocalPrepared(ctx, pre, pn.LocalRequest{Theta: 0.42})
			if err != nil {
				errc <- err
				return
			}
			if !reflect.DeepEqual(local.Nucleusness, wantLocal.Nucleusness) {
				t.Error("engine local result differs from LocalDecompose")
			}
			glob, err := eng.GlobalPrepared(ctx, pre, pn.NucleiRequest{K: 1, Theta: 0.35, Samples: 500, Seed: 1})
			if err != nil {
				errc <- err
				return
			}
			if !reflect.DeepEqual(glob, wantGlob) {
				t.Error("engine global result differs from GlobalNuclei")
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	pre, err := eng.Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.LocalPrepared(context.Background(), pre, pn.LocalRequest{Theta: -1}); !errors.Is(err, pn.ErrTheta) {
		t.Errorf("theta=-1: %v, want ErrTheta", err)
	}
	if _, err := eng.GlobalPrepared(context.Background(), pre, pn.NucleiRequest{K: -1, Theta: 0.3}); !errors.Is(err, pn.ErrNegativeK) {
		t.Errorf("k=-1: %v, want ErrNegativeK", err)
	}
	if err := (pn.NucleiRequest{K: 1, Theta: 0.3, Eps: 5}).Validate(); !errors.Is(err, pn.ErrBadSampleSpec) {
		t.Errorf("eps=5: %v, want ErrBadSampleSpec", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.WeakPrepared(ctx, pre, pn.NucleiRequest{K: 1, Theta: 0.38, Samples: 100}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled weak: %v, want context.Canceled", err)
	}
}

func TestReadEdgeListPublic(t *testing.T) {
	g, err := pn.ReadEdgeList(strings.NewReader("0 1 0.5\n1 2 0.8\n0 2 0.9\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
}

func TestHoeffdingSampleSizePublic(t *testing.T) {
	if n := pn.HoeffdingSampleSize(0.1, 0.1); n != 150 {
		t.Errorf("sample size = %d, want 150", n)
	}
}

func TestDatasetsPublic(t *testing.T) {
	names := pn.DatasetNames()
	if len(names) != 6 {
		t.Fatalf("DatasetNames = %v", names)
	}
	g := pn.MustDataset("krogan", 0.1)
	if g.NumEdges() == 0 {
		t.Error("empty krogan sim")
	}
	if _, err := pn.LoadDataset("nope", 1); err == nil {
		t.Error("unknown dataset accepted")
	}
	cfg, err := pn.LoadDataset("dblp", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if g := pn.GenerateDataset(cfg); g.NumEdges() == 0 {
		t.Error("empty dblp sim")
	}
}
