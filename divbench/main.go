// Command divbench is the repository's end-to-end benchmark. It drives an
// in-process server.Server through Server.Handler().ServeHTTP with
// in-memory requests and responses (no sockets), one closed-loop client
// with one request outstanding, on one of four seeded workloads, and
// checks every response against an oracle computed through the library.
//
//	bash divbench/run.sh -gomaxprocs 1 --workload analyze-cold --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload traced and prints the per-layer metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// divbench/DESIGN.md explains the workloads, the metrics and what each
// layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "divbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fl := flag.NewFlagSet("divbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 15, "measured seconds per run")
	trace := fl.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	procs := fl.Int("gomaxprocs", 1, "GOMAXPROCS for the run")
	workdir := fl.String("workdir", ".bench_build", "directory for temporary WAL directories")
	if err := fl.Parse(args); err != nil {
		return err
	}
	runtime.GOMAXPROCS(*procs)
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	// Inputs and oracle answers are built here, before any set-up clock.
	r, err := w.build(*seed, *workdir)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	var rep *report
	if *trace == 0 {
		rep, err = endToEnd(w, r, time.Duration(*seconds)*time.Second)
	} else {
		rep, err = traced(w, r)
	}
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	fmt.Println(string(out))
	return nil
}

const (
	// setupReps is how many times a run builds the server; setup_s is
	// the median. One set-up is a few seconds of work at most and
	// follows the host's speed of the moment, so setupsBefore of them
	// precede the timed ops (the last one serves them) and the rest
	// follow, and the samples span the whole run.
	setupReps    = 5
	setupsBefore = 2
	// minOps is the fewest timed ops a run makes, so p90 rests on at
	// least ten samples beyond it.
	minOps = 100
)

// window is one measurement window: a fixed number of consecutive ops.
type window struct {
	ok   int // succeeded ops
	busy time.Duration
}

// loop is the outcome of one sequence of ops.
type loop struct {
	lat                 []float64 // ms per succeeded op
	cpu                 []float64 // CPU ms per attempted op
	windows             []window  // complete windows, in order
	attempted, failed   int
	retries             int
	heapMB              float64
	mallocs, allocBytes uint64
	gcs                 uint32
	firstErr            error
}

// runOps runs ops on r's current server until dur has passed, at least
// minN ops were made and the current window of winOps ops is complete;
// or exactly maxN ops when maxN > 0. After op heapAt it reads the live
// heap.
func runOps(r runner, tr *tracer, dur time.Duration, minN, maxN, winOps, heapAt int) (*loop, error) {
	c := &client{h: r.current().h, tr: tr}
	res := &loop{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; ; i++ {
		if maxN > 0 && i >= maxN || maxN == 0 && i >= minN && i%winOps == 0 && time.Since(start) >= dur {
			break
		}
		if err := r.next(i); err != nil {
			return nil, err
		}
		c.sw = stopwatch{}
		err := r.op(i, c)
		res.attempted++
		if i%winOps == 0 {
			res.windows = append(res.windows, window{})
		}
		w := &res.windows[len(res.windows)-1]
		w.busy += c.sw.wall
		res.cpu = append(res.cpu, ms(c.sw.cpu))
		if err == nil {
			w.ok++
		}
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
		} else {
			res.lat = append(res.lat, ms(c.sw.wall))
		}
		if i+1 == heapAt {
			res.heapMB = liveHeapMB()
		}
	}
	runtime.ReadMemStats(&m1)
	res.retries = c.retries
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.gcs = m1.NumGC - m0.NumGC
	return res, nil
}

// setup stages and builds a fresh server, returning its set-up time.
func setup(r runner, traced bool) (time.Duration, error) {
	if err := r.stage(); err != nil {
		return 0, err
	}
	runtime.GC() // every set-up starts from a collected heap
	if err := r.setup(traced); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	return r.setupTime(), nil
}

// endToEnd measures the end-to-end metrics, untraced.
func endToEnd(w *workload, r runner, dur time.Duration) (*report, error) {
	var setups []float64
	timeSetups := func(n int) error {
		for k := 0; k < n; k++ {
			d, err := setup(r, false)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	if err := timeSetups(setupsBefore); err != nil {
		return nil, err
	}
	l, err := runOps(r, nil, dur, max(minOps, w.heapAt), 0, w.window, w.heapAt)
	if err != nil {
		return nil, err
	}
	if err := timeSetups(setupReps - setupsBefore); err != nil {
		return nil, err
	}
	summarize(w.name, l)
	fmt.Fprintf(os.Stderr, "divbench: %s: set-up times (s) %.3f\n", w.name, setups)
	p := append([]float64(nil), l.lat...)
	slices.Sort(p)
	// Throughput is measured per window and the run reports the median,
	// so a burst of host noise in one window does not move the figure.
	var rate []float64
	for _, win := range l.windows {
		rate = append(rate, ratio(float64(win.ok), win.busy.Seconds()))
	}
	return &report{
		Correct:   l.failed == 0,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setups), "s"},
			"p50_ms":           {quantile(p, 0.5), "ms"},
			"p90_ms":           {quantile(p, 0.9), "ms"},
			"throughput_per_s": {median(rate), "1/s"},
			"cpu_ms_per_op":    {median(l.cpu), "ms"},
			"live_heap_mb":     {l.heapMB, "MiB"},
		},
	}, nil
}

// summarize prints a human-readable line about a loop to stderr.
func summarize(name string, l *loop) {
	fmt.Fprintf(os.Stderr, "divbench: %s: %d ops attempted, %d succeeded, %d failed, %d retried after 429\n",
		name, l.attempted, l.attempted-l.failed, l.failed, l.retries)
	if l.firstErr != nil {
		fmt.Fprintln(os.Stderr, "divbench: first failure:", l.firstErr)
	}
}
