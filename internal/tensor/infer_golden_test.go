package tensor

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/infer_golden.json from this build's results")

const inferGoldenPath = "testdata/infer_golden.json"

// inferRecord is one op's row of the golden: its arity, how many
// argument lists were tried and accepted, and a SHA-256 over every
// list's result in order.
type inferRecord struct {
	Arity    int    `json:"arity"`
	Tuples   int    `json:"tuples"`
	Accepted int    `json:"accepted"`
	SHA256   string `json:"sha256"`
}

// inferCatalog is the mixed set every argument slot draws from:
// foldable and non-foldable tensors of ranks 2 and 4 whose dimensions
// fit matmul, conv, grouped conv, enlarge and merge, two tuples, the
// integers -1..5, a few strings and nil.
func inferCatalog() []*Meta {
	fold := func(m *Meta) *Meta { m.Foldable = true; return m }
	c := []*Meta{
		TensorMeta(Shape{2, 3}),
		TensorMeta(Shape{3, 2}),
		TensorMeta(Shape{3, 3}),
		fold(TensorMeta(Shape{2, 3})),
		fold(TensorMeta(Shape{3, 3})),
		TensorMeta(Shape{1, 4, 6, 6}),
		TensorMeta(Shape{4, 4, 3, 3}),
		TensorMeta(Shape{4, 2, 1, 1}),
		fold(TensorMeta(Shape{4, 4, 3, 3})),
		fold(TensorMeta(Shape{4, 2, 1, 1})),
		{Kind: KindTuple, Shape: Shape{2, 3}, Shape2: Shape{2, 5}},
		{Kind: KindTuple, Shape: Shape{2, 3}, Shape2: Shape{2, 3}, Foldable: true},
	}
	for v := int64(-1); v <= 5; v++ {
		c = append(c, IntMeta(v))
	}
	for _, s := range []string{"1 0", "0 2 1 3", "3 2", "6", "x"} {
		c = append(c, StrMeta(s))
	}
	return append(c, nil)
}

// inferBases gives one accepted argument list per op of arity above
// 3, by catalog entry. Half of such an op's sample replaces up to three
// slots of it, so near-accepted lists are tried as often as uniform
// ones, which Infer almost always refuses.
var inferBases = map[Op][]string{
	OpConcat3: {"N(0)", "T[2 3]", "T[2 3]/w", "T[2 3]"},
	OpConcat4: {"N(1)", "T[1 4 6 6]", "T[1 4 6 6]", "T[1 4 6 6]", "T[1 4 6 6]"},
	OpConcat5: {"N(1)", "T[2 3]", "T[2 3]/w", "T[2 3]", "T[2 3]/w", "T[2 3]"},
	OpConv:    {"N(1)", "N(1)", "N(0)", "N(2)", "T[1 4 6 6]", "T[4 4 3 3]"},
	OpPoolMax: {"T[1 4 6 6]", "N(3)", "N(3)", "N(1)", "N(1)", "N(1)", "N(0)"},
	OpPoolAvg: {"T[1 4 6 6]", "N(1)", "N(1)", "N(2)", "N(2)", "N(0)", "N(1)"},
}

func metaKey(m *Meta) string {
	if m == nil {
		return "nil"
	}
	return m.String()
}

// inferResult renders what Infer returns for one argument list.
func inferResult(op Op, ival int64, sval string, args []*Meta) string {
	m, err := Infer(op, ival, sval, args)
	if err != nil {
		return "error"
	}
	return fmt.Sprintf("%v fold=%v", m, m.Foldable)
}

// inferGolden runs Infer over op's argument lists: every list of its
// arity for arity <= 3, a seeded sample of 20,000 above, each wrong
// length once, and several boundaries for split and payloads for the
// literal ops.
func inferGolden(op Op) inferRecord {
	cat := inferCatalog()
	arity := op.Arity()
	rec := inferRecord{Arity: arity}
	h := sha256.New()
	try := func(ival int64, sval string, args []*Meta) {
		res := inferResult(op, ival, sval, args)
		keys := make([]string, len(args))
		for i, a := range args {
			keys[i] = metaKey(a)
		}
		fmt.Fprintf(h, "%d %q (%s) -> %s\n", ival, sval, strings.Join(keys, ", "), res)
		rec.Tuples++
		if res != "error" {
			rec.Accepted++
		}
	}
	switch op {
	case OpInt:
		for v := int64(-1); v <= 5; v++ {
			try(v, "", nil)
		}
	case OpStr, OpInput, OpWeight:
		for _, s := range []string{"x@2 3", "w@4 4 3 3", "x@0 3", "x@2 -3", "noshape", "@2 3", "1 0", ""} {
			try(0, s, nil)
		}
	}
	ivals := []int64{0}
	if op == OpSplit {
		ivals = []int64{-1, 0, 1, 2, 3, 4}
	}
	args := make([]*Meta, arity)
	if arity <= 3 {
		idx := make([]int, arity)
		for {
			for i, j := range idx {
				args[i] = cat[j]
			}
			for _, iv := range ivals {
				try(iv, "", args)
			}
			i := arity - 1
			for i >= 0 && idx[i] == len(cat)-1 {
				idx[i] = 0
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
		}
	} else {
		rng := rand.New(rand.NewPCG(uint64(op), 38))
		byKey := map[string]*Meta{}
		for _, m := range cat {
			byKey[metaKey(m)] = m
		}
		base := inferBases[op]
		for n := 0; n < 20000; n++ {
			for i := range args {
				args[i] = cat[rng.IntN(len(cat))]
			}
			if n%2 == 1 {
				for i, k := range base {
					args[i] = byKey[k]
				}
				for k := rng.IntN(4); k > 0; k-- {
					args[rng.IntN(arity)] = cat[rng.IntN(len(cat))]
				}
			}
			try(0, "", args)
		}
	}
	for n := 0; n <= arity+1; n++ {
		if n == arity {
			continue
		}
		wrong := make([]*Meta, n)
		for i := range wrong {
			wrong[i] = cat[0]
		}
		try(0, "", wrong)
	}
	rec.SHA256 = hex.EncodeToString(h.Sum(nil))
	return rec
}

// TestInferGolden pins what Infer accepts and returns, op by op, over
// a fixed mixed catalog (testdata/infer_golden.json). -update-golden
// rewrites it: only for a change that means to move shape inference.
func TestInferGolden(t *testing.T) {
	got := map[string]inferRecord{}
	for op := Op(0); op < NumOps; op++ {
		got[op.String()] = inferGolden(op)
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(inferGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(inferGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to record it)", err)
	}
	var want map[string]inferRecord
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || !reflect.DeepEqual(g, w) {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("golden has %d ops, the build %d", len(want), len(got))
	}
}
