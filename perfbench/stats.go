package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, or
// the getrusage maximum when /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close() //sebdb:ignore-err read-only procfs file
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// slices is how many equal parts, by op index, a window is cut into.
// op_p50_ms is the median of the per-slice medians, so a burst of host
// noise in one part of a run moves it little.
const slices = 5

// window records a fixed-size timed window of ops (batches, for
// ingest): each completed op's latencies, and the process CPU time at
// its start and end.
type window struct {
	per        int
	cpu0, cpu1 time.Duration
	lats       [][]time.Duration // per slice
	all        []time.Duration   // every latency, in op order
	start      time.Time
}

// newWindow opens a window of n ops; it is called right before op 0.
func newWindow(n int) *window {
	per := (n + slices - 1) / slices
	if per < 1 {
		per = 1
	}
	k := (n + per - 1) / per
	return &window{per: per, lats: make([][]time.Duration, k), cpu0: cpuTime(), start: time.Now()}
}

// record adds the latencies of completed op i (one per transaction for
// an ingest batch).
func (w *window) record(i int, lats ...time.Duration) {
	s := i / w.per
	w.lats[s] = append(w.lats[s], lats...)
	w.all = append(w.all, lats...)
}

// finish closes the window after the last op, and after any closing
// work that belongs to it.
func (w *window) finish() {
	w.cpu1 = cpuTime()
}

// capped reports whether the window has run past its wall-clock cap,
// a guard that keeps a run on a badly overloaded host bounded.
func (w *window) capped(o options) bool {
	limit := time.Duration(6*o.seconds*float64(time.Second)) + 30*time.Second
	return time.Since(w.start) > limit
}

// commonMetrics fills the metrics every workload reports. ops_per_cpu_s
// is every completed op over the whole window's CPU, so background work
// that bunches into one part of the window (ingest's closing sweep) is
// always charged. op_p99_ms is the median of the slices' p99s when
// every slice holds at least minSliceOps independent ops (so each
// slice's p99 has ten samples beyond it), and the whole window's p99
// otherwise: an ingest batch's fifty transactions share one latency, so
// its slices are too small.
func commonMetrics(out *outcome, o options, setup float64, w *window, diskPerTx float64, sliceOps int) {
	out.metrics["setup_s"] = metric{setup, "s"}
	out.metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	var p50s, p99s []float64
	perSliceP99 := sliceOps >= minSliceOps
	for s := range w.lats {
		xs := msValues(w.lats[s])
		if len(xs) > 0 {
			p50s = append(p50s, median(xs))
			p99s = append(p99s, quantile(xs, 0.99))
		}
	}
	out.metrics["ops_per_cpu_s"] = metric{float64(len(w.all)) / (w.cpu1 - w.cpu0).Seconds(), "ops/CPU-s"}
	out.metrics["disk_bytes_per_tx"] = metric{diskPerTx, "B/tx"}
	out.metrics["op_p50_ms"] = metric{median(p50s), "ms"}
	if perSliceP99 {
		out.metrics["op_p99_ms"] = metric{median(p99s), "ms"}
	} else {
		out.metrics["op_p99_ms"] = metric{quantile(msValues(w.all), 0.99), "ms"}
	}
}

// minSliceOps is the slice size from which op_p99_ms is taken per slice.
const minSliceOps = 1000

// opsGate records an op count too small for op_p99_ms to have ten
// samples beyond it.
func opsGate(out *outcome, o options, got int, unit string) {
	if got < o.size.minOps {
		out.errs = append(out.errs, fmt.Sprintf("%d %s timed, want at least %d so op_p99_ms has ten beyond it", got, unit, o.size.minOps))
	}
}

// msValues converts durations to milliseconds.
func msValues(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return xs
}
