package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"tensat/internal/cachestore"
	"tensat/internal/cluster"
	"tensat/internal/tensor"
)

// Load constants. The rates were calibrated once, on the commit that
// added the benchmark — to half of the measured capacity_rps for the
// hits, and to a good quarter for the cold mix, where two jobs at once
// already contend for the two cores — and are never re-calibrated at
// run time: that would move the load with the code under test.
const (
	hotRate  = 300.0 // serve_hot_tiers open-loop arrivals per second
	coldRate = 10.0  // serve_cold_mix open-loop arrivals per second

	hotSLO  = 10 * time.Millisecond
	coldSLO = 200 * time.Millisecond

	// openShare of the run length is the open-loop phase, the rest the
	// closed-loop phase.
	openShare = 0.7
	// openClients bounds the requests in flight in the open-loop phase.
	// It is far above what the offered load keeps in flight, so it never
	// holds an arrival back; the closed loop uses one caller per core.
	openClients = 32

	hotCandidates = 96 // graphs preloaded into the fleet
	hotPerOwner   = 32 // keys used per owning node: 64 keys in all
	hotMemory     = 16 // node A's -cache: the memory tier holds a quarter of the keys
)

// smallFamilies optimize cold in about 5 ms each; mediumFamilies in
// 20–70 ms, most of it in the ILP.
var (
	smallFamilies  = []family{rnnCell(2, 1), attention(1, false), convTower(2)}
	mediumFamilies = []family{attention(1, true), rnnCell(3, 1)}
)

// fleet is the set of daemons one serve workload talks to.
type fleet struct {
	dir     string
	nodes   []*daemon // nodes[0] takes the client traffic
	keys    []*request
	records []record // what the fleet holds for keys, read back from a store (hot tiers)
	answers map[string]optimizeReply
}

// discard stops the daemons and removes what they wrote. A daemon that
// exits badly here has already answered everything it was asked.
func (f *fleet) discard() {
	for _, d := range f.nodes {
		_ = d.stop()
	}
	_ = os.RemoveAll(f.dir)
}

// serveRun is the part of a serve workload's run that both share:
// the two load phases around a pair of /metrics scrapes, then the
// metrics.
type serveRun struct {
	slo      time.Duration
	rate     float64
	rows     []string // the outcomes whose medians make wall_s_total
	arrivals func(n int) ([]arrival, error)
	next     func() (*request, error)
	// verify runs the workload's own output checks once the load is over.
	verify func(chk *checker, samples []sample, before, after []map[string]float64)
}

func runServe(ctx context.Context, cfg runConfig, rep *runReport, f *fleet, sr serveRun) (map[string]float64, error) {
	client := newAPIClient(f.nodes[0], openClients)
	defer client.close()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var reqID int
	var idMu sync.Mutex
	do := func(rq *request, due time.Time) sample {
		s := client.do(ctx, rq, due)
		if rec != nil {
			idMu.Lock()
			reqID++
			id := reqID
			idMu.Unlock()
			root := rec.add("request", s.sent, s.end, -1, id)
			t := s.sent
			rec.add("serve.submit", t, t.Add(s.submit), root, id)
			t = t.Add(s.submit)
			s.traceID, s.eventsSpan = id, rec.add("serve.events", t, t.Add(s.events), root, id)
			t = t.Add(s.events)
			rec.add("serve.result", t, t.Add(s.rd), root, id)
		}
		return s
	}

	openD := time.Duration(cfg.seconds * openShare * float64(time.Second))
	closedD := time.Duration(cfg.seconds*float64(time.Second)) - openD
	arrivals, err := sr.arrivals(int(sr.rate * openD.Seconds()))
	if err != nil {
		return nil, err
	}

	scrapeAll := func() ([]map[string]float64, []float64, error) {
		var ms []map[string]float64
		var cpu []float64
		for _, d := range f.nodes {
			m, err := scrape(ctx, d)
			if err != nil {
				return nil, nil, err
			}
			c, err := procCPUSeconds(d.pid())
			if err != nil {
				return nil, nil, err
			}
			ms, cpu = append(ms, m), append(cpu, c)
		}
		return ms, cpu, nil
	}
	before, cpuBefore, err := scrapeAll()
	if err != nil {
		return nil, err
	}

	// A traced run samples the queue gauge at 10 Hz while the load runs.
	var queueMax float64
	stopGauge := make(chan struct{})
	var gaugeDone sync.WaitGroup
	if cfg.trace {
		gaugeDone.Add(1)
		go func() {
			defer gaugeDone.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopGauge:
					return
				case <-tick.C:
					if m, err := scrape(ctx, f.nodes[0]); err == nil && m["tensat_queue_waiting"] > queueMax {
						queueMax = m["tensat_queue_waiting"]
					}
				}
			}
		}()
	}

	openStart := time.Now()
	open := openLoop(ctx, arrivals, openClients, do)
	openWall := time.Since(openStart)
	closedStart := time.Now()
	closed, err := closedLoop(ctx, closedD, nproc(), sr.next, do)
	closedWall := time.Since(closedStart)
	close(stopGauge)
	gaugeDone.Wait()
	if err != nil {
		return nil, err
	}
	after, cpuAfter, err := scrapeAll()
	if err != nil {
		return nil, err
	}

	// Everything below is outside the timed part.
	all := append(append([]sample(nil), open...), closed...)
	rep.Attempted = len(all)
	byOutcome := make(map[string][]float64)
	var openLat, lateMS, submitMS, eventsMS, resultMS, replyBytes []float64
	openOK, withinSLO, closedOK := 0, 0, 0
	for i := range all {
		s := &all[i]
		if s.err != nil {
			rep.Failed++
			if len(rep.CheckFailures) < 20 {
				rep.CheckFailures = append(rep.CheckFailures, fmt.Sprintf("request %d (%s): %v", i, s.req.graph.family, s.err))
			}
			continue
		}
		if i >= len(open) {
			closedOK++
			continue
		}
		openOK++
		ms := s.latencyMS()
		openLat = append(openLat, ms)
		byOutcome[s.reply.outcome()] = append(byOutcome[s.reply.outcome()], ms)
		if s.end.Sub(s.due) <= sr.slo {
			withinSLO++
		}
		lateMS = append(lateMS, float64(s.sent.Sub(s.due).Nanoseconds())/1e6)
		submitMS = append(submitMS, float64(s.submit.Nanoseconds())/1e6)
		eventsMS = append(eventsMS, float64(s.events.Nanoseconds())/1e6)
		resultMS = append(resultMS, float64(s.rd.Nanoseconds())/1e6)
		replyBytes = append(replyBytes, float64(s.replyBytes))
	}
	if openOK == 0 || closedOK == 0 {
		return nil, fmt.Errorf("no request succeeded (open %d, closed %d of %d); first failure: %v", openOK, closedOK, len(all), rep.CheckFailures)
	}

	chk := newChecker()
	var speedups []float64
	seenFP := make(map[string]bool)
	seenAnswer := make(map[string]bool)
	for i := range all {
		s := &all[i]
		if s.err != nil {
			continue
		}
		// Thousands of hits return a few dozen distinct answers; each is
		// parsed and verified once.
		answer := fmt.Sprintf("%s\x00%v\x00%v\x00%s", s.req.graph.fp, s.reply.Degraded, s.reply.OptCost, s.reply.Graph)
		if seenAnswer[answer] {
			continue
		}
		seenAnswer[answer] = true
		out, err := tensor.UnmarshalGraph([]byte(s.reply.Graph))
		if err != nil {
			chk.failf("%s: reply graph does not parse: %v", s.req.graph.family, err)
			continue
		}
		if s.reply.Fingerprint != s.req.graph.fp {
			chk.failf("%s: reply fingerprint %s, request %s", s.req.graph.family, s.reply.Fingerprint, s.req.graph.fp)
		}
		chk.result(s.req.graph.family+" "+s.reply.outcome(), s.req.graph.fp, s.req.graph.graph, out,
			s.reply.OrigCost, s.reply.OptCost, !s.reply.Degraded, !s.reply.Degraded)
		if !s.reply.Degraded && !seenFP[s.req.graph.fp] {
			seenFP[s.req.graph.fp] = true
			speedups = append(speedups, s.reply.OrigCost/s.reply.OptCost)
		}
	}
	sr.verify(chk, all, before, after)
	rep.OutputsRun = chk.checked
	rep.CheckFailures = append(rep.CheckFailures, chk.failures...)

	var rowMedianS []float64
	for _, o := range outcomes {
		if ms := byOutcome[o]; len(ms) > 0 {
			rep.Rows = append(rep.Rows, newRowReport(o, ms))
		}
	}
	for _, o := range sr.rows {
		ms := byOutcome[o]
		if len(ms) == 0 {
			return nil, fmt.Errorf("no open-loop request was answered %q, which the workload is built to produce (outcomes: %v)", o, counts(byOutcome))
		}
		rowMedianS = append(rowMedianS, median(ms)/1e3)
	}
	rep.Samples = map[string]int{"open": len(open), "closed": len(closed), "setup": len(rep.SetupS)}
	for o, ms := range byOutcome {
		rep.Samples["open."+o] = len(ms)
	}

	var cpu float64
	for i := range cpuAfter {
		cpu += cpuAfter[i] - cpuBefore[i]
	}
	var rss float64
	for _, d := range f.nodes {
		r, err := peakRSSMB(d.pid())
		if err != nil {
			return nil, err
		}
		rss += r
	}

	if !cfg.trace {
		return map[string]float64{
			"setup_s":              median(rep.SetupS),
			"wall_s_total":         sum(rowMedianS),
			"wall_s_geomean":       geomean(rowMedianS),
			"lat_p50_ms":           median(openLat),
			"capacity_rps":         float64(closedOK) / closedWall.Seconds(),
			"cpu_ms_per_op":        cpu * 1e3 / float64(openOK+closedOK),
			"peak_rss_mb":          rss,
			"cost_speedup_geomean": geomean(speedups),
			"slo_ok_ratio":         float64(withinSLO) / float64(len(open)),
			"ok_ratio":             float64(rep.Attempted-rep.Failed) / float64(rep.Attempted),
		}, nil
	}

	m := cfg.zeroPerLayer()
	m["serve.lat_p90_ms"] = percentile(openLat, 90)
	m["serve.lat_p99_ms"] = percentile(openLat, 99)
	m["serve.submit_ms_p50"] = median(submitMS)
	m["serve.events_ms_p50"] = median(eventsMS)
	m["serve.result_ms_p50"] = median(resultMS)
	for o, ms := range byOutcome {
		m["serve.lat_p50_ms."+o] = median(ms)
		m["serve.lat_p99_ms."+o] = percentile(ms, 99)
		m["serve.share."+o] = float64(len(ms)) / float64(openOK)
	}
	m["serve.queue_waiting_max"] = queueMax
	front := func(series string) float64 { return delta(before[0], after[0], series) }
	m["serve.runs_completed"] = front("tensat_runs_completed_total")
	m["serve.store_hits"] = front("tensat_store_hits_total")
	m["serve.store_puts"] = front("tensat_store_puts_total")
	m["serve.peer_hits"] = front("tensat_peer_hits_total")
	m["serve.peer_puts"] = front("tensat_peer_puts_total")
	m["serve.shed"] = front("tensat_shed_total")
	m["serve.achieved_rps"] = float64(openOK) / openWall.Seconds()
	m["serve.daemon_cpu_ms_per_req"] = cpu * 1e3 / float64(openOK+closedOK)
	m["serve.reply_bytes_p50"] = median(replyBytes)
	m["serve.gen_late_ms_p99"] = percentile(lateMS, 99)
	// The daemons' times are reported as the clock measured them; a few
	// gauge units, now that the load is over, say what kind of hour it
	// was on the host.
	m["host.gauge_ms"] = (gaugeUnit() + gaugeUnit() + gaugeUnit()) / 3
	if err := serveLayers(ctx, cfg, rep, rec, f, client, open, byOutcome, m); err != nil {
		return nil, err
	}
	rep.SelfSeconds = rec.selfTimes()
	rep.TraceFile = cfg.traceFile(rep.Workload)
	if err := rec.writeChrome(rep.TraceFile); err != nil {
		return nil, err
	}
	return m, nil
}

func counts(by map[string][]float64) map[string]int {
	out := make(map[string]int, len(by))
	for k, v := range by {
		out[k] = len(v)
	}
	return out
}

// checkCounts compares what the clients saw with what the front daemon
// counted over the same interval.
func checkCounts(chk *checker, samples []sample, before, after map[string]float64, series map[string]string) {
	seen := make(map[string]int)
	for i := range samples {
		if samples[i].err == nil {
			seen[samples[i].reply.outcome()]++
		}
	}
	names := make([]string, 0, len(series))
	for o := range series {
		names = append(names, o)
	}
	sort.Strings(names)
	for _, o := range names {
		if got := int(delta(before, after, series[o])); got != seen[o] {
			chk.failf("clients saw %d %s answers, the daemon's %s counted %d", seen[o], o, series[o], got)
		}
	}
}

// ---- serve_hot_tiers ----

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1).
type zipf struct {
	cum []float64
}

func newZipf(n int) *zipf {
	z := &zipf{cum: make([]float64, n)}
	var total float64
	for i := range z.cum {
		total += 1 / float64(i+1)
		z.cum[i] = total
	}
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	u := r.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, u)
}

// hotSetup brings up the two-node fleet with every key already
// computed: the candidate graphs go to node B once, B pushes the ones
// node A owns to A, and A is then restarted so that its memory tier is
// empty and its store is replayed from disk. Keys are then chosen so
// that each node owns the same number at every popularity rank.
func hotSetup(ctx context.Context, cfg runConfig, bin string) (*fleet, error) {
	dir, err := os.MkdirTemp(cfg.scratch, "hot-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, answers: make(map[string]optimizeReply)}
	ok := false
	defer func() {
		if !ok {
			f.discard()
		}
	}()
	secret := filepath.Join(dir, "secret")
	if err := os.WriteFile(secret, []byte("bench-cluster-secret-0123456789\n"), 0o600); err != nil {
		return nil, err
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, fmt.Sprintf("127.0.0.1:%d", port))
	}
	peers := addrs[0] + "," + addrs[1]
	for i, name := range []string{"a", "b"} {
		args := []string{"-store-dir", filepath.Join(dir, "store-"+name), "-peers", peers, "-self", addrs[i],
			"-cluster-secret-file", secret, "-max-jobs", "65536"}
		if i == 0 {
			args = append(args, "-cache", fmt.Sprint(hotMemory))
		}
		d := &daemon{addr: addrs[i], bin: bin, args: args, logPath: filepath.Join(dir, name+".log")}
		if err := d.start(ctx); err != nil {
			return nil, err
		}
		f.nodes = append(f.nodes, d)
	}
	a, b := f.nodes[0], f.nodes[1]

	gen := newGraphGen(cfg.seed)
	var cands []*request
	for i := 0; i < hotCandidates; i++ {
		g, err := gen.next(smallFamilies[i%len(smallFamilies)])
		if err != nil {
			return nil, err
		}
		rq, err := newRequest(g, "")
		if err != nil {
			return nil, err
		}
		cands = append(cands, rq)
	}
	toB := newAPIClient(b, nproc())
	defer toB.close()
	var arr []arrival
	for _, rq := range cands {
		arr = append(arr, arrival{req: rq})
	}
	for _, s := range openLoop(ctx, arr, nproc(), func(rq *request, due time.Time) sample { return toB.do(ctx, rq, due) }) {
		if s.err != nil {
			return nil, fmt.Errorf("preload: %w", s.err)
		}
		if s.reply.outcome() != "cold" {
			return nil, fmt.Errorf("preload: %s answered %q, want a cold run", s.req.graph.family, s.reply.outcome())
		}
		f.answers[s.req.graph.fp] = s.reply
	}

	// B's log holds every record, each fsynced before its reply, so a
	// copy of it is complete. It gives the keys (which only the daemon
	// derives) and the records themselves for the layer replay.
	copyDir := filepath.Join(dir, "store-b-copy")
	if err := os.MkdirAll(copyDir, 0o755); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, "store-b", "results.log"))
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(copyDir, "results.log"), data, 0o644); err != nil {
		return nil, err
	}
	st, err := cachestore.Open(copyDir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	byFP := make(map[string]*request, len(cands))
	for _, rq := range cands {
		byFP[rq.graph.fp] = rq
	}
	ring := cluster.NewRing(addrs, 0)
	owned := map[string][]record{}
	reqOf := make(map[string]*request)
	keys := st.Keys()
	sort.Strings(keys)
	for _, key := range keys {
		payload, found, err := st.Get(key)
		if err != nil || !found {
			return nil, fmt.Errorf("reading back %s: found=%v err=%v", key, found, err)
		}
		res, _, parts, err := cachestore.Decode(payload)
		if err != nil {
			return nil, err
		}
		rq := byFP[parts.Fingerprint]
		if rq == nil {
			return nil, fmt.Errorf("store holds a record for fingerprint %s that was never sent", parts.Fingerprint)
		}
		owner := ring.Owner(key)
		owned[owner] = append(owned[owner], record{text: rq.graph.text, graph: rq.graph.graph, res: res, key: key, parts: parts})
		reqOf[key] = rq
	}
	if len(keys) != len(cands) {
		return nil, fmt.Errorf("node B stored %d records for %d distinct graphs", len(keys), len(cands))
	}

	// Wait for B's asynchronous pushes: A must hold every key it owns.
	deadline := time.Now().Add(20 * time.Second)
	for {
		m, err := scrape(ctx, a)
		if err != nil {
			return nil, err
		}
		if int(m["tensat_store_puts_total"]) >= len(owned[a.addr]) {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("node A received %v of the %d records it owns", m["tensat_store_puts_total"], len(owned[a.addr]))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := a.stop(); err != nil {
		return nil, err
	}
	if err := a.start(ctx); err != nil {
		return nil, err
	}

	per := hotPerOwner
	for _, addr := range addrs {
		if n := len(owned[addr]); n < per {
			per = n
		}
	}
	if per < hotMemory {
		return nil, fmt.Errorf("the ring gave one node only %d of %d keys", per, len(keys))
	}
	// The seed decides which graph gets which popularity rank; ranks
	// alternate between the owners, so each tier sees the same demand.
	rng := rand.New(rand.NewSource(cfg.seed))
	for _, addr := range addrs {
		recs := owned[addr]
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	}
	for i := 0; i < per; i++ {
		for _, addr := range addrs {
			r := owned[addr][i]
			f.keys = append(f.keys, reqOf[r.key])
			f.records = append(f.records, r)
		}
	}
	ok = true
	return f, nil
}

func runHotTiers(ctx context.Context, cfg runConfig, rep *runReport) (map[string]float64, error) {
	bin, err := buildDaemon(ctx, cfg)
	if err != nil {
		return nil, err
	}
	f, setupS, err := repeatSetup(3, func() (*fleet, error) { return hotSetup(ctx, cfg, bin) }, (*fleet).discard, nil)
	if err != nil {
		return nil, err
	}
	defer f.discard()
	rep.SetupS = setupS

	z := newZipf(len(f.keys))
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	var mu sync.Mutex
	draw := func() *request {
		mu.Lock()
		defer mu.Unlock()
		return f.keys[z.draw(rng)]
	}
	return runServe(ctx, cfg, rep, f, serveRun{
		slo: hotSLO, rate: hotRate,
		rows: []string{"memory", "disk", "peer"},
		arrivals: func(n int) ([]arrival, error) {
			out := make([]arrival, n)
			for i := range out {
				out[i] = arrival{at: time.Duration(float64(i) / hotRate * float64(time.Second)), req: draw()}
			}
			return out, nil
		},
		next: func() (*request, error) { return draw(), nil },
		verify: func(chk *checker, samples []sample, before, after []map[string]float64) {
			for i := range samples {
				s := &samples[i]
				if s.err != nil {
					continue
				}
				if want := f.answers[s.req.graph.fp]; s.reply.Graph != want.Graph || s.reply.OptCost != want.OptCost {
					chk.failf("%s answer for %s differs from the cold run's", s.reply.outcome(), s.req.graph.fp)
				}
			}
			checkCounts(chk, samples, before[0], after[0], map[string]string{
				"memory": "tensat_cache_hits_total", "disk": "tensat_store_hits_total", "peer": "tensat_peer_hits_total",
			})
			for i := range before {
				if n := delta(before[i], after[i], "tensat_runs_completed_total"); n != 0 {
					chk.failf("node %d made %v cold runs during the timed part; every key was preloaded", i, n)
				}
			}
		},
	})
}

// ---- serve_cold_mix ----

const (
	goldKey = "gold-key-0123456789"
	bulkKey = "bulk-key-0123456789"

	tenantsFile = `{"tenants": [
  {"name": "gold", "key": "` + goldKey + `", "priority": 10},
  {"name": "bulk", "key": "` + bulkKey + `", "priority": 1, "rate_rps": %g, "burst": 1, "max_concurrent": 64}
]}`
)

// The cold mix is a fixed pattern, so that every seed offers the same
// load: a turn of five arrivals every half second — four fresh medium
// graphs 100 ms apart and, with the fourth, a repeat of it at the same
// instant. The first and fourth come from the unlimited tenant. The
// second and third come from the rate-limited one, whose bucket holds
// one token and refills it in a third of a second: it admits the second
// and sheds the third. So three arrivals in five end as cold runs, one
// as a shed run, and one joins the run it repeats.
const (
	coldPeriod     = 4   // fresh requests per turn of the pattern
	coldBulkRefill = 3.0 // tokens per second
)

func coldSetup(ctx context.Context, cfg runConfig, bin string, gen *graphGen) (*fleet, error) {
	dir, err := os.MkdirTemp(cfg.scratch, "cold-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	tenants := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(tenants, []byte(fmt.Sprintf(tenantsFile, coldBulkRefill)), 0o600); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{addr: fmt.Sprintf("127.0.0.1:%d", port), bin: bin, logPath: filepath.Join(dir, "tensatd.log"),
		args: []string{"-store-dir", filepath.Join(dir, "store"), "-tenants", tenants, "-max-jobs", "65536"}}
	if err := d.start(ctx); err != nil {
		f.discard()
		return nil, err
	}
	f.nodes = []*daemon{d}
	// Warm the daemon with a handful of cold runs.
	client := newAPIClient(d, nproc())
	defer client.close()
	for i := 0; i < 8; i++ {
		g, err := gen.next(mediumFamilies[i%len(mediumFamilies)])
		if err != nil {
			f.discard()
			return nil, err
		}
		rq, err := newRequest(g, goldKey)
		if err != nil {
			f.discard()
			return nil, err
		}
		if s := client.do(ctx, rq, time.Now()); s.err != nil {
			f.discard()
			return nil, fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return f, nil
}

func runColdMix(ctx context.Context, cfg runConfig, rep *runReport) (map[string]float64, error) {
	bin, err := buildDaemon(ctx, cfg)
	if err != nil {
		return nil, err
	}
	// One generator serves the set-ups and the load, so no request
	// repeats a graph a warm-up sent.
	gen := newGraphGen(cfg.seed)
	f, setupS, err := repeatSetup(3, func() (*fleet, error) { return coldSetup(ctx, cfg, bin, gen) }, (*fleet).discard, nil)
	if err != nil {
		return nil, err
	}
	defer f.discard()
	rep.SetupS = setupS

	var mu sync.Mutex
	k := 0 // fresh requests made so far
	// fresh makes the next fresh request. The two families swap places
	// every turn of the pattern, so each meets every kind of arrival.
	fresh := func(apiKey string) (*request, error) {
		mu.Lock()
		defer mu.Unlock()
		g, err := gen.next(mediumFamilies[(k+k/coldPeriod)%len(mediumFamilies)])
		if err != nil {
			return nil, err
		}
		k++
		return newRequest(g, apiKey)
	}
	return runServe(ctx, cfg, rep, f, serveRun{
		slo: coldSLO, rate: coldRate,
		rows: []string{"cold", "shed", "deduped"},
		arrivals: func(n int) ([]arrival, error) {
			out := make([]arrival, 0, n)
			for len(out) < n {
				key := goldKey
				switch len(out) % (coldPeriod + 1) {
				case 1, 2:
					key = bulkKey
				case coldPeriod:
					// Same due time as the request it repeats: the pair
					// meets in the daemon's singleflight.
					out = append(out, out[len(out)-1])
					continue
				}
				rq, err := fresh(key)
				if err != nil {
					return nil, err
				}
				out = append(out, arrival{at: time.Duration(float64(len(out)) / coldRate * float64(time.Second)), req: rq})
			}
			return out, nil
		},
		// The closed loop measures what the cold path sustains: every
		// request is a full-quality run.
		next: func() (*request, error) { return fresh(goldKey) },
		verify: func(chk *checker, samples []sample, before, after []map[string]float64) {
			checkCounts(chk, samples, before[0], after[0], map[string]string{
				"memory": "tensat_cache_hits_total", "disk": "tensat_store_hits_total", "shed": "tensat_shed_total",
			})
			for _, series := range []string{`tensat_tenant_rejected_total{tenant="gold"}`, `tensat_tenant_rejected_total{tenant="bulk"}`} {
				if n := delta(before[0], after[0], series); n != 0 {
					chk.failf("%s rose by %v: requests were rejected, not shed", series, n)
				}
			}
			cold, joined := 0, 0
			for i := range samples {
				if samples[i].err != nil {
					continue
				}
				if samples[i].reply.outcome() == "cold" {
					cold++
				}
				if samples[i].reply.Deduped {
					joined++
				}
			}
			if got := int(delta(before[0], after[0], "tensat_store_puts_total")); got != cold {
				chk.failf("clients saw %d cold answers, the store took %d puts", cold, got)
			}
			if got := int(delta(before[0], after[0], "tensat_cache_dedup_total")); got != joined {
				chk.failf("clients saw %d answers that joined another run, the daemon counted %d", joined, got)
			}
		},
	})
}

// nproc is the number of closed-loop callers: one per core.
func nproc() int { return runtime.NumCPU() }
