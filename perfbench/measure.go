package main

import (
	"context"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// minRequests is the least number of completed requests a timed window
// must hold: with 100 samples, 10 lie beyond the 90th percentile.
const minRequests = 100

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported.
const minBeyond = 10

// percentile is the nearest-rank q-quantile of sorted values, together with
// the number of samples beyond it; ok is false when fewer than minBeyond lie
// beyond it, and the percentile must not be reported.
func percentile(sorted []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond = n - rank
	return sorted[rank-1], beyond, beyond >= minBeyond
}

// median of xs (the mean of the middle two for even lengths); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sample is one completed request of a window.
type sample struct {
	kind opKind
	ms   float64
	// computed marks, in traced windows, a local answer this run had not
	// received before: a peel, not a cache hit.
	computed bool
}

// reqRecord is one traced request: its latency and the EngineMetrics
// deltas across it. With two clients the deltas include whatever the other
// client's request did meanwhile.
type reqRecord struct {
	ID      int64    `json:"id"`
	Client  int      `json:"client"`
	Op      string   `json:"op"`
	Ms      float64  `json:"ms"`
	Correct bool     `json:"correct"`
	Delta   counters `json:"delta"`
}

// runtimeStats is the Go runtime's cumulative view of the process.
type runtimeStats struct {
	allocBytes uint64
	gcCycles   uint64
	gcPause    time.Duration
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeStats{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcPause:    time.Duration(m.PauseTotalNs),
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB. Each run is
// its own process, so the peak belongs to one workload's run.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// window is the outcome of one closed-loop measurement.
type window struct {
	samples           []sample
	attempted, failed int
	elapsed           time.Duration
	rt                runtimeStats // deltas across the window
	delta             counters     // EngineMetrics deltas (zero without an observer)
	records           []reqRecord  // traced windows only
}

// completed is the number of requests that returned, failed or not.
func (w *window) completed() int { return len(w.samples) }

// latencies returns the sorted latencies of the requests of the given kinds
// (all kinds when none are given).
func (w *window) latencies(kinds ...opKind) []float64 {
	var out []float64
	for _, s := range w.samples {
		if len(kinds) == 0 || containsKind(kinds, s.kind) {
			out = append(out, s.ms)
		}
	}
	sort.Float64s(out)
	return out
}

func containsKind(ks []opKind, k opKind) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}

// runWindow drives t with one closed-loop goroutine per client cycle for d,
// then keeps going until at least min requests have completed (bounded at
// 2d). Latency runs from call to return; the correctness check and, when
// traced, the metrics snapshots happen outside it.
func runWindow(ctx context.Context, t *target, refs map[op]digest, d time.Duration, min int, traced bool) *window {
	runtime.GC()
	var done atomic.Int64
	var reqIDs atomic.Int64
	type clientOut struct {
		samples           []sample
		attempted, failed int
		records           []reqRecord
	}
	outs := make([]clientOut, len(t.in.cycles))
	rt0 := readRuntime()
	var c0 counters
	if t.m != nil {
		c0 = readCounters(t.m)
	}
	start := time.Now()
	deadline, hard := start.Add(d), start.Add(2*d)
	var wg sync.WaitGroup
	for c := range outs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			for i := 0; ; i++ {
				now := time.Now()
				if now.After(hard) || (now.After(deadline) && done.Load() >= int64(min)) {
					return
				}
				o := t.in.opAt(c, i)
				id := reqIDs.Add(1)
				var before counters
				if traced {
					before = readCounters(t.m)
				}
				root := t.tr.begin()
				begin := time.Now()
				r, err := t.do(ctx, o, id, root.id)
				lat := ms(time.Since(begin))
				t.tr.end(root, id, 0, "request."+o.kind.String())
				out.attempted++
				ok := err == nil && check(o, r, refs, t.in)
				if !ok {
					out.failed++
				}
				if err != nil {
					continue
				}
				done.Add(1)
				s := sample{kind: o.kind, ms: lat}
				if traced {
					if r.local != nil {
						s.computed = t.firstSeen(r.local)
					}
					out.records = append(out.records, reqRecord{ID: id, Client: c, Op: o.String(), Ms: lat,
						Correct: ok, Delta: readCounters(t.m).sub(before)})
				}
				out.samples = append(out.samples, s)
			}
		}(c)
	}
	wg.Wait()
	w := &window{elapsed: time.Since(start)}
	rt1 := readRuntime()
	w.rt = runtimeStats{
		allocBytes: rt1.allocBytes - rt0.allocBytes,
		gcCycles:   rt1.gcCycles - rt0.gcCycles,
		gcPause:    rt1.gcPause - rt0.gcPause,
	}
	if t.m != nil {
		w.delta = readCounters(t.m).sub(c0)
	}
	for _, out := range outs {
		w.samples = append(w.samples, out.samples...)
		w.attempted += out.attempted
		w.failed += out.failed
		w.records = append(w.records, out.records...)
	}
	sort.Slice(w.records, func(i, j int) bool { return w.records[i].ID < w.records[j].ID })
	return w
}
