// Command lsmperf is lsmlab's benchmark. It runs one workload against
// the engine's public API (in process, or over loopback TCP through the
// server and client), checks every answer, and prints end-to-end
// metrics, or with -trace 1 per-layer metrics from a traced run. The
// last line of standard output is the result as one JSON object.
//
//	go run . -workload point_read_large -seed 1 -seconds 10 -trace 0
//
// README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the detailed result file written beside the printed line.
type record struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Seconds  float64                `json:"seconds"`
	Trace    bool                   `json:"trace"`
	Env      environment            `json:"env"`
	GenS     float64                `json:"gen_s"`
	Samples  map[string]int64       `json:"samples,omitempty"`
	Rates    []float64              `json:"window_ops_per_s,omitempty"`
	SetupS   []float64              `json:"setup_s,omitempty"`
	WriteAmp []float64              `json:"write_amp,omitempty"`
	SpaceAmp []float64              `json:"space_amp,omitempty"`
	Failures []string               `json:"failures,omitempty"`
	Result   result                 `json:"result"`
	Extra    map[string]metricValue `json:"extra,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "point_read_large, durable_ingest or served_mixed_zipf")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		traced   = flag.Int("trace", 0, "1: run the traced measurement and print per-layer metrics")
		work     = flag.String("work", ".bench_build/lsmperf", "directory for stores, results and traces")
		root     = flag.String("root", ".", "repository root (hashed into the environment record)")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "lsmperf: want -workload %s, -seconds > 0 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "lsmperf:", err)
		return 1
	}
	rec := record{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traced == 1}
	var err error
	if rec.Env, err = probeEnvironment(*root, *work); err != nil {
		fmt.Fprintln(os.Stderr, "lsmperf: environment probe:", err)
		return 1
	}
	t0 := time.Now()
	in := generate(*workload, *seed)
	rec.GenS = time.Since(t0).Seconds()

	fmt.Printf("lsmperf workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *traced)
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s commit=%s source=%s fs=%s sleep_floor_us=%.1f fsync_us=%.1f cpu_probe_us=%.1f\n",
		rec.Env.NumCPU, rec.Env.GOMAXPROCS, rec.Env.GoVersion, rec.Env.Commit, rec.Env.SourceSHA256,
		rec.Env.FSType, rec.Env.SleepFloorUs, rec.Env.FsyncUs, rec.Env.CPUProbeUs)

	b := &bench{in: in, workDir: *work, seconds: *seconds}
	if rec.Trace {
		err = runTraced(w, b, &rec, *work)
	} else {
		err = runUntraced(w, b, &rec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmperf:", err)
		return 1
	}
	printRecord(&rec)
	if err := writeJSON(filepath.Join(*work, "results",
		fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *traced)), &rec); err != nil {
		fmt.Fprintln(os.Stderr, "lsmperf: write result:", err)
		return 1
	}
	line, _ := json.Marshal(rec.Result)
	fmt.Println(string(line))
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

// setupsPerRun is how many times an untraced run sets its workload up;
// set-up time is reported as the median.
const setupsPerRun = 3

func runUntraced(w workloadFuncs, b *bench, rec *record) error {
	p, err := runPhase(w, b, setupsPerRun)
	if err != nil {
		return err
	}
	rec.Result = result{Attempted: p.attempted, Failed: p.failed, Metrics: endToEnd(p)}
	rec.Result.Correct = p.failed == 0
	rec.Failures = p.failures
	rec.Samples = sampleCounts(p)
	rec.Rates = p.rates
	rec.SetupS, rec.WriteAmp, rec.SpaceAmp = p.setupS, p.writeAmps, p.spaceAmps
	return nil
}

// runTraced measures the workload twice, each for half the run: once
// untraced (the overhead baseline, and the runtime counters, which the
// tracing would inflate), then with every layer traced.
func runTraced(w workloadFuncs, b *bench, rec *record, work string) error {
	half := *b
	half.seconds = b.seconds / 2
	base, err := runPhase(w, &half, 1)
	if err != nil {
		return fmt.Errorf("untraced half: %w", err)
	}
	tr := newTracing()
	half.tr = tr
	p, err := runPhase(w, &half, 1)
	if err != nil {
		return fmt.Errorf("traced half: %w", err)
	}
	rec.Result = result{Attempted: base.attempted + p.attempted, Failed: base.failed + p.failed,
		Metrics: perLayer(base, p, tr, rec.GenS)}
	rec.Result.Correct = rec.Result.Failed == 0
	rec.Failures = append(base.failures, p.failures...)
	rec.Samples = sampleCounts(p)
	rec.Extra = endToEnd(p)
	path := filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.jsonl", rec.Workload, rec.Seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}

func sampleCounts(p *phase) map[string]int64 {
	m := map[string]int64{}
	for k, ls := range p.lat {
		m[opNames[k]] = summarize(ls...).n
	}
	return m
}

func printRecord(rec *record) {
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Printf("%-40s %16.4f %s\n", n, m.Value, m.Unit)
	}
	for _, op := range opNames {
		fmt.Printf("samples.%s %d\n", op, rec.Samples[op])
	}
	fmt.Printf("bench.gen_s %.3f\n", rec.GenS)
	fmt.Printf("attempted=%d failed=%d correct=%v\n", rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
	for _, f := range rec.Failures {
		fmt.Println("failure:", f)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}
