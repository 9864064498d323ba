package rewrite_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sync"
	"testing"

	"tensat/internal/models"
	"tensat/internal/rewrite"
	"tensat/internal/rules"
	"tensat/internal/tensor"
)

// zooInputs builds the eight zoo models at ScaleTest once per process.
var zooInputs = sync.OnceValue(func() (zoo struct {
	names  []string
	graphs []*tensor.Graph
}) {
	for _, m := range append(models.Benchmarks(), models.Extras()...) {
		zoo.names = append(zoo.names, m.Name)
		zoo.graphs = append(zoo.graphs, m.Build(models.ScaleTest))
	}
	return zoo
})

// FuzzExplore holds the runner to the reference explorer
// (reference_test.go): a zoo model at ScaleTest explored under a subset
// of the default rules (rule i is in when bit i%64 of ruleBits is set),
// a node limit of 50-2,000, k_multi 1-2 and one of the three filter
// modes must build the same e-graph (both explore_golden.json digests),
// the same filter list, and stop for the same reason after as many
// iterations, matches and applications. `go test ./...` replays the
// seeds; CI fuzzes it for 10 s.
func FuzzExplore(f *testing.F) {
	f.Add(uint8(0), ^uint64(0), uint16(950), uint8(0), uint8(0))
	f.Add(uint8(1), ^uint64(0), uint16(1950), uint8(1), uint8(0))
	f.Add(uint8(2), uint64(0x5555555555555555), uint16(450), uint8(1), uint8(1))
	f.Add(uint8(3), ^uint64(0), uint16(1450), uint8(0), uint8(2))
	f.Add(uint8(4), uint64(0xf0f0f0f0f0f0f0f0), uint16(1950), uint8(1), uint8(1))
	f.Add(uint8(5), ^uint64(0), uint16(0), uint8(1), uint8(0))
	f.Add(uint8(6), uint64(0x3333333333333333), uint16(750), uint8(0), uint8(0))
	f.Add(uint8(7), ^uint64(0), uint16(1950), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, model uint8, ruleBits uint64, nodes uint16, kmulti, filter uint8) {
		zoo := zooInputs()
		input := zoo.graphs[int(model)%len(zoo.graphs)]
		var rs []*rewrite.Rule
		for i, r := range rules.Default() {
			if ruleBits&(1<<(i%64)) != 0 {
				rs = append(rs, r)
			}
		}
		mode := rewrite.FilterMode(filter % 3)
		lim := rewrite.Limits{MaxNodes: 50 + int(nodes)%1951, MaxIters: 15, KMulti: 1 + int(kmulti)%2}

		r := rewrite.NewRunner(rs)
		r.Filter, r.Limits = mode, lim
		got, err := r.RunContext(context.Background(), input)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rewrite.ReferenceExplore(input, rs, mode, lim)
		if err != nil {
			t.Fatal(err)
		}
		type summary struct {
			Iterations, Matches, Applied int
			Stop                         rewrite.StopReason
			DumpSHA, StampsSHA           string
			Filtered                     []int64
		}
		sum := func(ex *rewrite.Explored) summary {
			dump := sha256.Sum256([]byte(ex.G.Dump()))
			s := summary{ex.Stats.Iterations, ex.Stats.Matches, ex.Stats.Applied, ex.Stats.Stop,
				hex.EncodeToString(dump[:]), stampsDigest(ex), nil}
			for st := int64(1); st <= ex.G.Stamp(); st++ {
				if ex.Filtered.Has(st) {
					s.Filtered = append(s.Filtered, st)
				}
			}
			return s
		}
		if g, w := sum(got), sum(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s, %d rules, %s filter, limits %+v:\n runner    %+v\n reference %+v",
				zoo.names[int(model)%len(zoo.names)], len(rs), mode, lim, g, w)
		}
	})
}
