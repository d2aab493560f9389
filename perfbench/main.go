// Command perfbench is the repository's benchmark. It generates a
// workload's input tables from a seed, drives the public Session API or
// the internal/serve daemon with them, checks every output against a
// single-worker oracle, and prints one JSON result line:
//
//	perfbench --workload analyze-small --seed 1 --seconds 15 --trace 0
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics. README.md describes the
// workloads and every metric; BENCHMARK.json at the root of the checkout,
// which it reads, lists the metrics' names and units. run.sh builds and
// runs it from a checkout.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	metrics  []metricDef // what the result line reports, from the catalog
	dir      string      // scratch directory for inputs and daemon state
	stop     time.Time   // timed phases end by then, whatever their targets
}

// runBudget bounds a whole run; timed phases stop early enough to exit
// well within it.
const runBudget = 150 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	start := time.Now()
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "analyze-small, analyze-tall or serve-mixed")
	seed := fl.Int64("seed", 1, "input and arrival seed")
	seconds := fl.Int("seconds", 15, "length of the timed phase in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("--seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	defs, err := loadCatalog(catalogFile, *trace == 1)
	if err != nil {
		logf("%v (run from the root of the checkout)", err)
		return 1
	}
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, metrics: defs, dir: dir, stop: start.Add(runBudget),
	}
	if err := runWorkload(cfg, stdout); err != nil {
		logf("%s: %v", cfg.workload, err)
		return 1
	}
	return 0
}

func runWorkload(cfg runConfig, stdout io.Writer) error {
	paths, err := generate(cfg.dir, cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	var t tally
	var v map[string]float64
	switch cfg.workload {
	case "analyze-small", "analyze-tall":
		t, v, err = runAnalyze(cfg, paths)
	case "serve-mixed":
		t, v, err = runServe(cfg, paths)
	default:
		err = fmt.Errorf("unknown workload")
	}
	if err != nil {
		return err
	}
	logf("attempted=%d failed=%d mismatches=%d errors=%d", t.attempted, t.failed, t.mismatches, t.errors)
	return writeResult(stdout, t, v, cfg.metrics)
}
