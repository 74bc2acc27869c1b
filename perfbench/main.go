// Command perfbench is the repository's benchmark. It runs one workload
// (the bench matrix or one of three serving mixes) against the
// simulator's public entry points, checks every answer, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a separate
// traced run (--trace 1). The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// what each layer metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"matrix", "serve-read", "serve-burst", "serve-rw-chaos"}

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median, at the reference speed (see refClock).
const setupRepeats = 25

// options is one invocation's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	spansDir string
	// requests overrides the serving mixes' stream length (tests use
	// short streams); 0 keeps serveRequests.
	requests int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloads))
	fs.Int64Var(&o.seed, "seed", 1, "seed every input of the workload derives from")
	fs.Float64Var(&o.seconds, "seconds", 20, "host seconds the timed phase aims to measure")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: a traced run's per-layer metrics")
	fs.StringVar(&o.spansDir, "spans-dir", "", "with --trace 1, write the run's spans as JSON into this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, not %d\n", trace)
		return 2
	}
	o.traced = trace == 1
	return execute(o, stdout, stderr)
}

// execute runs one workload and prints its metrics, then the result
// line. It returns the process exit code: 1 on an error or a wrong
// answer.
func execute(o options, stdout, stderr io.Writer) int {
	res, err := runWorkload(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	specs := endToEnd
	if o.traced {
		specs = perLayer
	}
	for _, s := range specs {
		fmt.Fprintf(stdout, "%-30s %16.6g %-10s (%s is better)\n", s.Name, res.Metrics[s.Name].Value, s.Unit, s.Better)
	}
	fmt.Fprintf(stdout, "workload %s seed %d: correct=%v attempted=%d failed=%d\n", o.workload, o.seed, res.Correct, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: wrong answers; see the lines above")
		return 1
	}
	return 0
}

// outcome is what a workload run measured, before rendering.
type outcome struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
	// notes are diagnostics for the reader (pass times, oracle
	// details), printed to standard error.
	notes []string
}

func runWorkload(o options, stderr io.Writer) (result, error) {
	var out outcome
	var err error
	switch o.workload {
	case "matrix":
		out, err = runMatrix(o)
	case "serve-read", "serve-burst", "serve-rw-chaos":
		out, err = runServing(o)
	case "":
		return result{}, errors.New("--workload is required")
	default:
		return result{}, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloads)
	}
	if err != nil {
		return result{}, err
	}
	for _, n := range out.notes {
		fmt.Fprintf(stderr, "%s: %s\n", o.workload, n)
	}
	specs := endToEnd
	if o.traced {
		specs = perLayer
		out.metrics["failed_frac"] = ratio(float64(out.failed), float64(out.attempted))
	}
	m, err := render(specs, out.metrics)
	if err != nil {
		return result{}, err
	}
	return result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: m}, nil
}

// derive maps the benchmark seed and a purpose to an independent seed
// in [1, 2^30], so each input (an application's structures, a stream, a
// fault schedule) gets its own.
func derive(seed int64, purpose string) int64 {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	x := uint64(seed) ^ h.Sum64()
	// splitmix64 finalizer.
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x%(1<<30)) + 1
}

// timeIt returns f's host duration in seconds.
func timeIt(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}

// repeatSetup runs a workload's set-up setupRepeats times and returns
// the median duration, in seconds at clk's reference speed.
func repeatSetup(clk *refClock, f func() error) (float64, error) {
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // every repeat starts from a collected heap
		d, err := clk.time(f)
		if err != nil {
			return 0, err
		}
		ds = append(ds, d)
	}
	return median(ds), nil
}

// morePasses decides whether the timed phase starts another pass: at
// least minPasses run, and further ones while the next (estimated at
// the median pass so far) still ends within the time budget.
func morePasses(walls []float64, minPasses int, elapsed, budget float64) bool {
	return len(walls) < minPasses || elapsed+median(walls) <= budget
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeSpans stores the traced run's spans as
// <spans-dir>/<workload>-seed<seed>.json when --spans-dir is set.
func writeSpans(o options, tr *tracer) error {
	if o.spansDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.spansDir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)))
}
