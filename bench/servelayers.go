package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tensat"
	"tensat/internal/cluster"
	"tensat/internal/tensor"
)

const (
	// maxServerTraces bounds how many cold jobs' traces a traced run
	// fetches from the daemon.
	maxServerTraces = 40
	// maxReplayRecords bounds the layer replay's inputs.
	maxReplayRecords = 64
	// replayBudget is the share of the run length the in-process
	// pipeline replay may take.
	replayBudget = 0.3
)

// traceSpanReply is GET /v1/jobs/{id}/trace's span on the wire.
type traceSpanReply struct {
	Name       string           `json:"name"`
	StartMS    float64          `json:"start_ms"`
	DurationMS float64          `json:"duration_ms"`
	Children   []traceSpanReply `json:"children"`
}

func (t traceSpanReply) span() *tensat.TraceSpan {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	s := &tensat.TraceSpan{Name: t.Name, Start: ms(t.StartMS), Duration: ms(t.DurationMS)}
	for _, c := range t.Children {
		s.Children = append(s.Children, c.span())
	}
	return s
}

// serveLayers is the traced serve run's second half: the daemon's own
// traces of cold jobs, the in-process replay of the layers a request
// passes, the cut-open pipeline over the same graphs, and the
// predicted budgets, measured ÷ predicted.
func serveLayers(ctx context.Context, cfg runConfig, rep *runReport, rec *recorder, f *fleet, client *apiClient,
	open []sample, byOutcome map[string][]float64, m map[string]float64) error {

	// Cold jobs: where the daemon says the time went.
	var exploreS, extractS, coldRatio []float64
	for i := range open {
		s := &open[i]
		if s.err != nil || s.reply.outcome() != "cold" || len(exploreS) >= maxServerTraces {
			continue
		}
		resp, err := client.call(ctx, http.MethodGet, "/v1/jobs/"+s.jobID+"/trace", s.req.apiKey, nil)
		if err != nil {
			return fmt.Errorf("fetching trace of job %s: %w", s.jobID, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("fetching trace of job %s: %s %v", s.jobID, resp.Status, err)
		}
		var tr struct {
			Trace traceSpanReply `json:"trace"`
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			return fmt.Errorf("trace of job %s: %w", s.jobID, err)
		}
		root := tr.Trace.span()
		// The job's clock starts when the daemon accepts it, which the
		// client sees as the end of the submit step.
		rec.attach(root, s.sent.Add(s.submit), s.eventsSpan, s.traceID)
		var ex, xt float64
		if sp := findSpan(root, "explore"); sp != nil {
			ex = sp.Duration.Seconds()
		}
		if sp := findSpan(root, "extract"); sp != nil {
			xt = sp.Duration.Seconds()
		}
		exploreS, extractS = append(exploreS, ex), append(extractS, xt)
		if ex+xt > 0 {
			coldRatio = append(coldRatio, s.latencyMS()/1e3/(ex+xt))
		}
	}
	rep.Samples["server_traces"] = len(exploreS)
	if len(exploreS) > 0 {
		m["serve.phase_s.explore"] = sum(exploreS) / float64(len(exploreS))
		m["serve.phase_s.extract"] = sum(extractS) / float64(len(extractS))
		m["model.cold_ratio"] = median(coldRatio)
	}

	// The records to replay: what the fleet's store holds (hot tiers),
	// or the answers the cold runs returned.
	recs := f.records
	if recs == nil {
		seen := make(map[string]bool)
		for i := range open {
			s := &open[i]
			if s.err != nil || s.reply.Degraded || seen[s.req.graph.fp] {
				continue
			}
			seen[s.req.graph.fp] = true
			out, err := tensor.UnmarshalGraph([]byte(s.reply.Graph))
			if err != nil {
				return err
			}
			recs = append(recs, record{text: s.req.graph.text, graph: s.req.graph.graph,
				res: &tensat.Result{Graph: out, OrigCost: s.reply.OrigCost, OptCost: s.reply.OptCost}})
		}
	}
	if len(recs) > maxReplayRecords {
		recs = recs[:maxReplayRecords]
	}
	rep.Samples["replay_records"] = len(recs)

	var fetch func(key string) error
	if len(f.nodes) > 1 {
		secret, err := os.ReadFile(filepath.Join(f.dir, "secret"))
		if err != nil {
			return err
		}
		peer := f.nodes[1]
		fetch = func(key string) error {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer.url(cluster.PeerPath+url.PathEscape(key)), nil)
			if err != nil {
				return err
			}
			req.Header.Set(cluster.AuthHeader, strings.TrimSpace(string(secret)))
			req.Header.Set(cluster.OriginHeader, f.nodes[0].addr)
			resp, err := client.http.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("peer fetch of %s: %s", key, resp.Status)
			}
			return nil
		}
	}
	if err := replayLayers(rec, recs, cfg.scratch, fetch, m); err != nil {
		return err
	}

	// One HTTP round trip to the front daemon, the unit of the protocol's
	// three steps.
	rtt, err := perOp(50, func(int) error {
		resp, err := client.call(ctx, http.MethodGet, "/v1/healthz", "", nil)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err
	})
	if err != nil {
		return fmt.Errorf("round-trip probe: %w", err)
	}
	// Predicted budget of a hit: decode the request, fingerprint it,
	// encode the answer, three round trips; a disk hit adds the store
	// read and the record decode, a peer hit the fetch and the decode.
	base := m["tensor.unmarshal_us"] + m["fingerprint.graph_us"] + m["tensor.marshal_us"] + 3*micros(rtt)
	predicted := map[string]float64{
		"memory": base,
		"disk":   base + m["cachestore.get_us"] + m["cachestore.decode_us"],
		"peer":   base + m["cluster.fetch_us"] + m["cachestore.decode_us"],
	}
	for tier, us := range predicted {
		if ms := byOutcome[tier]; len(ms) > 0 && us > 0 {
			m["model.hit_ratio."+tier] = median(ms) * 1e3 / us
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("round trip %.1f us; predicted hit budgets (us): memory %.1f, disk %.1f, peer %.1f",
		micros(rtt), predicted["memory"], predicted["disk"], predicted["peer"]))

	// The optimizer's layers over the same graphs, cut open in process
	// with the daemon's default options.
	reg := tensat.NewRegistry()
	sets, err := compileRuleSets(reg, tensat.DefaultRuleSetName)
	if err != nil {
		return err
	}
	model := tensat.DefaultCostModel()
	var total layerCost
	start := time.Now()
	for i, r := range recs {
		if time.Since(start).Seconds() > cfg.seconds*replayBudget {
			break
		}
		j := job{name: fmt.Sprintf("replay %d", i), graph: r.graph,
			opts: tensat.Options{NodeLimit: 20000, IterLimit: 15, KMulti: 1, ILPTimeout: 2 * time.Minute}}
		id := -(i + 1) // below the request ids
		span := rec.open(j.name, -1, id)
		cost, _, err := cutPipeline(ctx, rec, span, id, j, sets, model)
		rec.close(span)
		if err != nil {
			return err
		}
		total.add(cost)
	}
	rep.Samples["replay_pipeline_runs"] = total.Rows
	total.metrics(m)
	return nil
}
