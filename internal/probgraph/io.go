package probgraph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ReadEdgeList parses a probabilistic edge list in the whitespace-separated
// text format used by the paper's dataset releases:
//
//	# comment lines start with '#' or '%'
//	u v p
//
// Vertex ids are non-negative integers; p may be omitted, defaulting to 1
// (a deterministic edge). Duplicate edges are an error.
//
// The graph's arrays are sized by the largest vertex id, not by the input,
// so ids are bounded by the edge count before anything is built: an input
// whose largest id exceeds maxVertexSlack + maxVerticesPerEdge·edges − 1 is
// refused with an error wrapping ErrInputTooLarge, and memory stays
// proportional to the input.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var edges []ProbEdge
	maxID := int64(-1)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("probgraph: line %d: want 'u v [p]', got %q", line, text)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("probgraph: line %d: bad vertex %q: %v", line, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("probgraph: line %d: bad vertex %q: %v", line, fields[1], err)
		}
		p := 1.0
		if len(fields) == 3 {
			p, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("probgraph: line %d: bad probability %q: %v", line, fields[2], err)
			}
		}
		edges = append(edges, ProbEdge{U: int32(u), V: int32(v), P: p})
		maxID = max(maxID, u, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("probgraph: read: %w", err)
	}
	if limit := maxVertexSlack + maxVerticesPerEdge*int64(len(edges)); maxID+1 > limit {
		return nil, fmt.Errorf("%w: vertex id %d needs %d vertices, over the %d that %d edges allow",
			ErrInputTooLarge, maxID, maxID+1, limit, len(edges))
	}
	return New(0, edges)
}

// ErrInputTooLarge reports an edge list whose vertex ids are too sparse for
// its edge count (see ReadEdgeList); match it with errors.Is.
var ErrInputTooLarge = errors.New("probgraph: input too large")

// An edge list of m edges may name at most maxVertexSlack +
// maxVerticesPerEdge·m vertices. Every generated dataset has n/m ≤ 0.3, and
// a graph needs at least one edge per two non-isolated vertices, so only
// ids far beyond the edges' reach are refused.
const (
	maxVerticesPerEdge = 16
	maxVertexSlack     = 1024
)

// ReadEdgeListFile opens and parses path with ReadEdgeList.
func ReadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}

// WriteEdgeList writes pg in the format accepted by ReadEdgeList.
func (pg *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# probabilistic edge list: %d vertices, %d edges\n",
		pg.NumVertices(), pg.NumEdges()); err != nil {
		return err
	}
	for _, e := range pg.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", e.U, e.V, e.P); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteEdgeListFile writes pg to path, creating or truncating it.
func (pg *Graph) WriteEdgeListFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pg.WriteEdgeList(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
