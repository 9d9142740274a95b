package probgraph

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// FuzzReadEdgeList hammers the untrusted-input surface: ReadEdgeList must
// never panic, and whenever it accepts an input, the resulting graph must
// satisfy the probabilistic-graph invariants, keep its vertex count within
// the edge-count bound (so its memory follows the input), and survive a
// write/read round-trip.
func FuzzReadEdgeList(f *testing.F) {
	for _, seed := range []string{
		"0 1 0.5\n1 2 0.8\n0 2 0.9\n", // well-formed triangle
		"# comment\n% comment\n\n3 4\n",
		"0 1 1\n",
		"0 1 0.5",             // no trailing newline
		"0 1 1.5\n",           // probability > 1
		"0 1 -0.25\n",         // negative probability
		"0 1 0\n",             // zero probability is rejected
		"0 1 NaN\n",           // NaN probability
		"0 1 Inf\n",           // infinite probability
		"5 5 0.5\n",           // self-loop
		"0 1 0.5\n0 1 0.6\n",  // duplicate edge
		"1 0 0.5\n0 1 0.5\n",  // duplicate edge, reversed orientation
		"-1 2 0.5\n",          // negative vertex id
		"a b 0.5\n",           // non-numeric vertices
		"0 1 p\n",             // non-numeric probability
		"0\n",                 // too few fields
		"0 1 0.5 extra\n",     // too many fields
		"99999999999 1 0.5\n", // id overflows int32
		"0 2147483646 0.5\n",  // largest int32 id: 2³¹ vertices for one edge
		"0 1 0.5\r\n1 2 0.5\r\n",
		"\x00\x01\x02",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return // rejected input: any error is fine, panics are not
		}
		if limit := maxVertexSlack + maxVerticesPerEdge*g.NumEdges(); g.NumVertices() > limit {
			t.Errorf("accepted %d vertices for %d edges, over the bound %d", g.NumVertices(), g.NumEdges(), limit)
		}
		seen := make(map[[2]int32]bool)
		for _, e := range g.Edges() {
			if !(e.P > 0 && e.P <= 1) {
				t.Errorf("accepted edge (%d,%d) with probability %v outside (0,1]", e.U, e.V, e.P)
			}
			if e.U == e.V {
				t.Errorf("accepted self-loop on %d", e.U)
			}
			if e.U < 0 || e.V < 0 || int(e.U) >= g.NumVertices() || int(e.V) >= g.NumVertices() {
				t.Errorf("edge (%d,%d) outside vertex range [0,%d)", e.U, e.V, g.NumVertices())
			}
			key := [2]int32{e.U, e.V}
			if seen[key] {
				t.Errorf("accepted duplicate edge (%d,%d)", e.U, e.V)
			}
			seen[key] = true
		}
		// Round-trip: what we write must parse back to the same graph.
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("WriteEdgeList: %v", err)
		}
		g2, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round-trip parse failed: %v", err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Errorf("round-trip edge count %d != %d", g2.NumEdges(), g.NumEdges())
		}
		for _, e := range g.Edges() {
			if g2.Prob(e.U, e.V) != e.P {
				t.Errorf("round-trip probability of (%d,%d) = %v, want %v",
					e.U, e.V, g2.Prob(e.U, e.V), e.P)
			}
		}
	})
}

// TestReadEdgeListRejectsHostileInputs pins the error (not panic) behaviour
// for each malformed-input class the fuzz seeds cover, so the contract holds
// even when the fuzzer is not running.
func TestReadEdgeListRejectsHostileInputs(t *testing.T) {
	for _, tc := range []struct{ name, input string }{
		{"probability above 1", "0 1 1.5\n"},
		{"negative probability", "0 1 -0.25\n"},
		{"zero probability", "0 1 0\n"},
		{"NaN probability", "0 1 NaN\n"},
		{"self-loop", "5 5 0.5\n"},
		{"duplicate edge", "0 1 0.5\n0 1 0.6\n"},
		{"duplicate reversed", "1 0 0.5\n0 1 0.5\n"},
		{"negative vertex", "-1 2 0.5\n"},
		{"non-numeric vertex", "a b 0.5\n"},
		{"non-numeric probability", "0 1 p\n"},
		{"too few fields", "0\n"},
		{"too many fields", "0 1 0.5 extra\n"},
		{"id overflow", "99999999999 1 0.5\n"},
	} {
		if _, err := ReadEdgeList(strings.NewReader(tc.input)); err == nil {
			t.Errorf("%s: input %q accepted, want error", tc.name, tc.input)
		}
	}
}

// TestReadEdgeListBoundsVertexIDs: one 16-byte line naming vertex 2³¹−2
// would size the graph's arrays at 2³¹ entries; it is refused with
// ErrInputTooLarge before anything is built, allocating under 1 MiB. Ids
// up to the bound are accepted, one past it refused.
func TestReadEdgeListBoundsVertexIDs(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadEdgeList(strings.NewReader("0 2147483646 0.5\n"))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrInputTooLarge) {
		t.Fatalf("sparse id: err = %v, want ErrInputTooLarge", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing the sparse id allocated %d bytes, want < 1 MiB", got)
	}

	limit := maxVertexSlack + maxVerticesPerEdge*2 // two edges
	at := fmt.Sprintf("0 1 0.5\n1 %d 0.5\n", limit-1)
	if g, err := ReadEdgeList(strings.NewReader(at)); err != nil || g.NumVertices() != limit {
		t.Errorf("id %d with 2 edges: err = %v, want %d vertices accepted", limit-1, err, limit)
	}
	past := fmt.Sprintf("0 1 0.5\n1 %d 0.5\n", limit)
	if _, err := ReadEdgeList(strings.NewReader(past)); !errors.Is(err, ErrInputTooLarge) {
		t.Errorf("id %d with 2 edges: err = %v, want ErrInputTooLarge", limit, err)
	}
}
