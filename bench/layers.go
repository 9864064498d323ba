package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tensat"
	"tensat/internal/cachestore"
	"tensat/internal/cluster"
	"tensat/internal/fingerprint"
	"tensat/internal/tenant"
	"tensat/internal/tensor"
)

// record is one request of a workload with its answer: what the layer
// replay feeds to the layers a request passes on its way through
// tensatd.
type record struct {
	text  string         // request graph on the wire
	graph *tensat.Graph  // request graph
	res   *tensat.Result // its optimization result
	// key and parts are the daemon's own cache identity for the request
	// when the workload knows it (records read back from a store);
	// otherwise the replay derives a stand-in key.
	key   string
	parts cachestore.KeyParts
}

// perOp times f over every record, repeating the sweep until the total
// is long enough to read off the clock, and returns the mean per call.
func perOp(n int, f func(i int) error) (time.Duration, error) {
	if n == 0 {
		return 0, nil
	}
	const enough = 20 * time.Millisecond
	calls := 0
	start := time.Now()
	for time.Since(start) < enough {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return 0, err
			}
		}
		calls += n
	}
	return time.Since(start) / time.Duration(calls), nil
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// replayLayers calls the layers a served request passes — wire decode,
// fingerprint, result codec, store, ring, tenant admission — in
// process over the workload's own requests and answers, each under a
// harness span, and writes the per-layer metrics into m. dir is a
// scratch directory inside the checkout. fetch, when non-nil, performs
// one authenticated peer-cache fetch of a record's key (serve_hot_tiers).
func replayLayers(rec *recorder, recs []record, dir string, fetch func(key string) error, m map[string]float64) error {
	n := len(recs)
	if n == 0 {
		return fmt.Errorf("layer replay: no records")
	}
	// sweep times f over the records under one harness span.
	sweep := func(name string, f func(i int) error) (time.Duration, error) {
		var d time.Duration
		_, _, err := timed(rec, name, -1, 0, func() (err error) {
			d, err = perOp(n, f)
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("layer replay: %s: %w", name, err)
		}
		return d, nil
	}

	d, err := sweep("tensor.UnmarshalGraph", func(i int) error {
		_, err := tensor.UnmarshalGraph([]byte(recs[i].text))
		return err
	})
	if err != nil {
		return err
	}
	m["tensor.unmarshal_us"] = micros(d)

	d, err = sweep("tensor.MarshalText", func(i int) error {
		_, err := recs[i].res.Graph.MarshalText()
		return err
	})
	if err != nil {
		return err
	}
	m["tensor.marshal_us"] = micros(d)

	d, err = sweep("fingerprint.GraphHex+Tensors", func(i int) error {
		if _, err := fingerprint.GraphHex(recs[i].graph); err != nil {
			return err
		}
		_, err := fingerprint.Tensors(recs[i].graph)
		return err
	})
	if err != nil {
		return err
	}
	m["fingerprint.graph_us"] = micros(d)

	keys := make([]string, n)
	names := make([][]string, n)
	parts := make([]cachestore.KeyParts, n)
	for i, r := range recs {
		fp, err := fingerprint.GraphHex(r.graph)
		if err != nil {
			return err
		}
		if names[i], err = fingerprint.Tensors(r.graph); err != nil {
			return err
		}
		if r.key != "" {
			keys[i], parts[i] = r.key, r.parts
			continue
		}
		parts[i] = cachestore.KeyParts{Fingerprint: fp, Options: "bench", RuleSetHash: "bench", CostModelHash: "bench"}
		keys[i] = fingerprint.Key(fp, "bench", "bench", "bench")
	}
	distinct := make(map[string]bool, n)
	for _, k := range keys {
		distinct[k] = true
	}
	payloads := make([][]byte, n)
	d, err = sweep("cachestore.Encode", func(i int) (err error) {
		payloads[i], err = cachestore.Encode(recs[i].res, names[i], parts[i])
		return err
	})
	if err != nil {
		return err
	}
	m["cachestore.encode_us"] = micros(d)
	var bytes int
	for _, p := range payloads {
		bytes += len(p)
	}
	m["cachestore.record_bytes"] = float64(bytes) / float64(n)

	d, err = sweep("cachestore.Decode", func(i int) error {
		_, _, _, err := cachestore.Decode(payloads[i])
		return err
	})
	if err != nil {
		return err
	}
	m["cachestore.decode_us"] = micros(d)

	storeDir := filepath.Join(dir, "replay-store")
	if err := os.RemoveAll(storeDir); err != nil {
		return err
	}
	st, err := cachestore.Open(storeDir)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	// Put fsyncs, so each record is written once, not swept repeatedly.
	d, _, err = timed(rec, "cachestore.Put", -1, 0, func() error {
		for i := range recs {
			if err := st.Put(keys[i], payloads[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		st.Close()
		return fmt.Errorf("layer replay: put: %w", err)
	}
	m["cachestore.put_us"] = micros(d / time.Duration(n))
	d, err = sweep("cachestore.Get", func(i int) error {
		_, ok, err := st.Get(keys[i])
		if err == nil && !ok {
			err = fmt.Errorf("key %d missing from the store it was put in", i)
		}
		return err
	})
	if err != nil {
		st.Close()
		return err
	}
	m["cachestore.get_us"] = micros(d)
	if err := st.Close(); err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	d, _, err = timed(rec, "cachestore.Open", -1, 0, func() (err error) {
		st, err = cachestore.Open(storeDir)
		return err
	})
	if err != nil {
		return fmt.Errorf("layer replay: reopen: %w", err)
	}
	m["cachestore.open_s"] = d.Seconds()
	reopened := st.Len()
	if err := st.Close(); err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	if reopened != len(distinct) {
		return fmt.Errorf("layer replay: reopened store holds %d records, want %d", reopened, len(distinct))
	}

	ring := cluster.NewRing([]string{"127.0.0.1:7001", "127.0.0.1:7002"}, 0)
	d, _ = sweep("cluster.Ring.Owner", func(i int) error { _ = ring.Owner(keys[i]); return nil })
	m["cluster.owner_ns"] = float64(d.Nanoseconds())

	m["cluster.fetch_us"] = 0
	if fetch != nil {
		d, err = sweep("cluster.fetch", func(i int) error { return fetch(keys[i]) })
		if err != nil {
			return err
		}
		m["cluster.fetch_us"] = micros(d)
	}

	reg, err := tenant.Parse([]byte(`{"tenants":[{"name":"gold","key":"gold-key-0001","priority":10}]}`))
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	d, _ = sweep("tenant.Acquire+Release", func(int) error {
		reg.Acquire("gold")
		reg.Release("gold", false)
		return nil
	})
	m["tenant.acquire_ns"] = float64(d.Nanoseconds())
	return nil
}
