// Command perfbench is the splitcnn benchmark. perfbench/run.sh builds
// the splitcnn binary and this command from the checkout, then runs
//
//	perfbench --workload serve|router --seed N --seconds S --trace 0|1
//
// from the checkout root. The untraced run (--trace 0) launches the
// workload's splitcnn processes, drives them, checks every answer and
// prints the end-to-end metrics; the traced run (--trace 1) prints the
// per-layer metrics instead, timed around calls into the program's
// packages. README.md in this directory lists every metric, and which
// end-to-end metric each per-layer one is expected to move.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the lines before it are
// the human-readable report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// rates is a fixed "low,high" pair of open-loop arrival rates (req/s).
type rates [2]float64

func (r *rates) String() string { return fmt.Sprintf("%g,%g", r[0], r[1]) }

func (r *rates) Set(s string) error {
	lo, hi, ok := strings.Cut(s, ",")
	if !ok {
		return fmt.Errorf("want low,high, got %q", s)
	}
	var err error
	if r[0], err = strconv.ParseFloat(lo, 64); err != nil {
		return err
	}
	if r[1], err = strconv.ParseFloat(hi, 64); err != nil {
		return err
	}
	if !(0 < r[0] && r[0] < r[1]) {
		return fmt.Errorf("want 0 < low < high, got %q", s)
	}
	return nil
}

type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       int
	bin, out    string
	serveRates  rates
	routerRates rates
}

func run(args []string) error {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "serve or router")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: images and arrival schedules derive from it")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds of load per run")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&o.bin, "bin", ".bench_build/splitcnn", "splitcnn binary under test")
	fs.StringVar(&o.out, "out", ".bench_build/out", "directory for logs, step logs and traces")
	fs.Var(&o.serveRates, "serve-rates", "fixed low,high open-loop rates (req/s) for the serve workload")
	fs.Var(&o.routerRates, "router-rates", "fixed low,high open-loop rates (req/s) for the router workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads(o)[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want serve or router)", o.workload)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return errors.New("want --seconds >= 1 and --trace 0 or 1")
	}
	if w.rates[0] == 0 {
		return fmt.Errorf("workload %s needs its fixed rates (--%s-rates low,high)", o.workload, o.workload)
	}
	if _, err := os.Stat(o.bin); err != nil {
		return fmt.Errorf("splitcnn binary: %w", err)
	}
	dir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, o.trace))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	env := newEnvKey(o.workload, o.seed)
	envJSON, _ := json.Marshal(env) // a struct of strings and ints always encodes
	fmt.Printf("env %s\n", envJSON)
	if err := os.WriteFile(filepath.Join(dir, "env.json"), envJSON, 0o644); err != nil {
		return err
	}

	res := &result{Metrics: map[string]metric{}}
	var err error
	if o.trace == 1 {
		err = tracedRun(o, w, dir, res)
	} else {
		err = untracedRun(o, w, dir, res)
	}
	if err != nil {
		return err
	}
	return res.print()
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	problems  []string
}

// set records a metric; a non-finite value is a problem, not a number.
func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("%s is %v", name, v)
		return
	}
	r.Metrics[name] = metric{v, unit}
	fmt.Printf("metric %-28s %14.6g %s\n", name, v, unit)
}

func (r *result) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Printf("FAIL %s\n", msg)
}

func (r *result) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// print writes the report footer and the result line. A run with
// failed operations or a problem is not correct and exits non-zero.
func (r *result) print() error {
	r.Correct = r.Failed == 0 && len(r.problems) == 0 && r.Attempted > 0
	if r.Attempted > 0 {
		fmt.Printf("fail_frac %.6g (%d of %d operations failed)\n",
			float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !r.Correct {
		return fmt.Errorf("run not correct: %d of %d operations failed, %d problems", r.Failed, r.Attempted, len(r.problems))
	}
	return nil
}

// workload is one serving system under test with its fixed rates.
type workload struct {
	name   string
	launch func(bin, logDir string) (*stack, error)
	rates  rates
}

func workloads(o options) map[string]workload {
	return map[string]workload{
		"serve": {name: "serve", rates: o.serveRates,
			launch: func(bin, logDir string) (*stack, error) { return launchServe(bin, logDir) }},
		"router": {name: "router", rates: o.routerRates, launch: launchRouter},
	}
}

// latencyLimit is the latency a request must meet; one answered later
// counts as failed.
const latencyLimit = 250 * time.Millisecond

// Run shape. A run is rounds rounds, each a few launches of the serving
// stack and a 1/rounds share of every load phase on the last launch;
// every trainEvery-th round first runs one training process. Each
// metric thus samples the whole run and several stacks, so a slow spell
// on a shared machine, or one slow launch, weighs on a few of its
// samples, not on all of one metric. The load comes from this process
// alone over conns() keep-alive connections, never more than the
// machine has CPUs.
const (
	rounds         = 6
	setupsPerRound = 2 // setup_s is the median of rounds x setupsPerRound launches
	trainEvery     = 2 // rounds/trainEvery training runs
	poolSize       = 128
)

func conns() int { return min(2, runtime.NumCPU()) }

// Shares of --seconds given to the low-rate, high-rate and closed-loop
// phases, summed over the rounds.
const (
	lowShare  = 0.6
	highShare = 0.3
	capShare  = 0.1
)

func untracedRun(o options, w workload, dir string, res *result) error {
	imgs, err := images(o.seed, poolSize)
	if err != nil {
		return err
	}
	bodies, err := requestBodies(imgs)
	if err != nil {
		return err
	}
	want, err := referenceLogits(imgs)
	if err != nil {
		return err
	}
	// From here on this process is only the load generator, and it shares
	// the machine's CPUs with the program under test: one P and a lazier
	// collector keep its own scheduling and GC work out of the latencies.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(400)
	secs := float64(o.seconds)
	perRound := func(rate, share float64) int { return int(math.Ceil(rate * share * secs / rounds)) }
	low, high := &phase{name: "low", rate: w.rates[0]}, &phase{name: "high", rate: w.rates[1]}
	capa := &phase{name: "capacity"}
	var lows, highs []*phase // per-round segments of low and high
	var tb trainBlock
	var setups, rss []float64
	for r := 0; r < rounds; r++ {
		if r%trainEvery == 0 {
			tb.run(o.bin, dir, r/trainEvery, res)
		}
		st, ts, err := setUp(setupsPerRound, func() (*stack, error) { return w.launch(o.bin, dir) }, bodies, want, latencyLimit)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		res.count(len(ts), 0)
		setups = append(setups, ts...)
		c := newClient(st.base, conns(), bodies, want, latencyLimit)
		segs := []*phase{
			c.closedLoop("warmup", 300*time.Millisecond, conns()),
			c.openLoop(fmt.Sprintf("low.%d", r), w.rates[0],
				poissonSchedule(scheduleSeed(o.seed, r, lowPhase), w.rates[0], perRound(w.rates[0], lowShare)), conns()),
			c.openLoop(fmt.Sprintf("high.%d", r), w.rates[1],
				poissonSchedule(scheduleSeed(o.seed, r, highPhase), w.rates[1], perRound(w.rates[1], highShare)), conns()),
			c.closedLoop(fmt.Sprintf("capacity.%d", r), time.Duration(capShare*secs/rounds*float64(time.Second)), conns()),
		}
		c.close()
		mib, err := st.peakRSSMiB()
		st.stop()
		if err != nil {
			return err
		}
		rss = append(rss, mib)
		for _, p := range segs {
			report(p)
			res.count(p.attempted, p.failed)
			if p.firstErr != nil {
				res.problem("%s: first failure: %v", p.name, p.firstErr)
			}
		}
		low.merge(segs[1])
		high.merge(segs[2])
		capa.merge(segs[3])
		lows, highs = append(lows, segs[1]), append(highs, segs[2])
	}
	tb.report(res)
	res.set("setup_s", "s", median(setups))
	latencyMetrics(res, low, lows)
	latencyMetrics(res, high, highs)
	res.set("capacity_rps", "1/s", capa.capacity())
	res.set("peak_rss_mib", "MiB", median(rss))
	return nil
}

// tailQ is the tail percentile reported for each open-loop phase: the
// highest one that every round's segment supports with minBeyond
// samples beyond it at the benchmark's rates and --seconds.
const tailQ = 0.95

// latencyMetrics reports a phase's p50 and p95, each the median over
// the rounds of that round's percentile: a slow spell of the shared
// machine, or one slow launch, moves a minority of the rounds and not
// the metric. Both are refused when the generator fell behind its
// schedule (judged on the pooled phase p), and the p95 when any round's
// sample cannot support it.
func latencyMetrics(res *result, p *phase, segs []*phase) {
	if ok, why := p.valid(); !ok {
		res.problem("phase %s invalid: %s", p.name, why)
		return
	}
	var p50s, tails []float64
	minN, minBeyondSeen := math.MaxInt, math.MaxInt
	for _, q := range segs {
		lat := append([]float64(nil), q.lat...)
		p50, _ := nearestRank(lat, 0.5)
		tail, beyond, ok := tailPercentile(lat, tailQ)
		if !ok {
			res.problem("p95_ms.%s refused: round %s has %d samples, %d beyond the rank (need %d), value %v",
				p.name, q.name, len(lat), beyond, minBeyond, tail)
			return
		}
		p50s, tails = append(p50s, p50), append(tails, tail)
		minN, minBeyondSeen = min(minN, len(lat)), min(minBeyondSeen, beyond)
	}
	res.set("p50_ms."+p.name, "ms", median(p50s))
	res.set("p95_ms."+p.name, "ms", median(tails))
	fmt.Printf("  p50/p95_ms.%s: medians over %d rounds of %d+ samples, %d+ beyond the p95\n",
		p.name, len(segs), minN, minBeyondSeen)
}

// report prints one phase's row.
func report(p *phase) {
	p50, _ := nearestRank(append([]float64(nil), p.lat...), 0.5)
	p99, beyond := nearestRank(append([]float64(nil), p.lat...), 0.99)
	lag, backlog := "-", "-"
	if p.rate > 0 {
		l, _ := nearestRank(append([]float64(nil), p.lagMs...), 0.99)
		lag, backlog = fmt.Sprintf("%.3f", l), strconv.Itoa(p.backlog)
	}
	valid, why := p.valid()
	fmt.Printf("phase %-9s rate %6.1f  n %5d  failed %d (over limit %d)  p50 %.3f ms  p99 %.3f ms (%d beyond)  gen.lag_p99_ms %s  backlog %s  wall %.2fs  %.1f ok/s  valid %v %s\n",
		p.name, p.rate, p.attempted, p.failed, p.overLimit, p50, p99, beyond, lag, backlog, p.wall.Seconds(), p.completedPerSec(), valid, why)
}

// trainBlock collects the training runs of one benchmark run.
type trainBlock struct {
	setups, ips, rss, loss []float64
}

// run runs training process i and records it; a failed run or check
// is a failed operation.
func (b *trainBlock) run(bin, dir string, i int, res *result) {
	tr, err := runTrain(bin, dir, i)
	res.count(1, 0)
	if err != nil {
		res.count(0, 1)
		res.problem("%v", err)
		return
	}
	fmt.Printf("train %d: setup %.3fs  %.1f img/s  loss step1 %.5f final %.5f  peak rss %.1f MiB\n",
		i, tr.setupS, tr.ips, tr.lossStep1, tr.lossFinal, tr.peakRSSMiB)
	b.setups, b.ips = append(b.setups, tr.setupS), append(b.ips, tr.ips)
	b.rss, b.loss = append(b.rss, tr.peakRSSMiB), append(b.loss, tr.lossFinal)
}

// report sets the training metrics: medians over the runs, and the
// final loss, which must be identical across them.
func (b *trainBlock) report(res *result) {
	for i := 1; i < len(b.loss); i++ {
		if math.Float64bits(b.loss[i]) != math.Float64bits(b.loss[0]) {
			res.problem("train: final loss differs between runs of one seed: %v vs %v", b.loss[0], b.loss[i])
		}
	}
	if len(b.loss) == 0 {
		return
	}
	// Set-up is printed, not gated: at 60-140 ms it spreads more from run
	// to run than any bound allows. The traced run reports it per layer.
	fmt.Printf("train set-up median %.4f s over %d runs\n", median(b.setups), len(b.setups))
	res.set("train_ips", "1/s", median(b.ips))
	res.set("train_peak_rss_mib", "MiB", median(b.rss))
	res.set("loss_final", "nats", b.loss[0])
}
