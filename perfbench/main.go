// Command perfbench is the repository's benchmark. It runs one named
// workload of the predict-then-validate pipeline from a seed, checks
// every output, and prints the workload's metrics:
//
//	bash perfbench/run.sh --workload predict-measure --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the requests go through the public gpuperf facade
// (Fleet, NewObservedHandler) and the last line of stdout carries the
// end-to-end metrics. With --trace 1 the same request sequence is
// replayed by calling each layer's public functions directly, inside
// spans this command records itself, and the last line carries the
// per-layer metrics. The line before the last is the full record: the
// host stamp, outputs_sha256, the tail percentile's rank and sample
// count, and per-layer self times. BENCHMARK.json lists the workloads
// and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// workDir holds everything a run writes: calibration directories,
// span files, and (from run.sh) the binary and Go build cache.
const workDir = ".bench_build"

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 20, "minimum length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 replays the workload layer by layer inside spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if _, ok := workloads[*workload]; !ok {
		return config{}, fmt.Errorf("unknown workload %q (have %v)", *workload, workloadNames())
	}
	if *seconds < 1 {
		return config{}, fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
	}, nil
}

func main() {
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		log.Error("bad arguments", "err", err)
		os.Exit(2)
	}
	if err := run(context.Background(), cfg); err != nil {
		log.Error("benchmark failed", "workload", cfg.workload, "seed", cfg.seed, "err", err)
		os.Exit(1)
	}
}

// run executes one workload in a private scratch directory under
// workDir, removed on return, and writes the record and result lines.
func run(ctx context.Context, cfg config) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	b := newBench(cfg, scratch)
	if err := workloads[cfg.workload](ctx, b); err != nil {
		return err
	}
	rec, res := b.report()
	if cfg.trace {
		path := filepath.Join(workDir, "traces", cfg.workload+"-seed"+strconv.FormatInt(cfg.seed, 10)+".json")
		if err := b.tr.writeFile(path); err != nil {
			return err
		}
		rec["trace_file"] = path
	}
	enc := json.NewEncoder(os.Stdout)
	return errors.Join(enc.Encode(rec), enc.Encode(res))
}
