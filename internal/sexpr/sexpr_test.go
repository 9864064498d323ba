package sexpr

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAtom(t *testing.T) {
	e, err := Parse("matmul")
	if err != nil {
		t.Fatal(err)
	}
	if !e.IsAtom() || e.Atom != "matmul" {
		t.Fatalf("got %v", e)
	}
}

func TestParseNested(t *testing.T) {
	e, err := Parse("(matmul ?act ?x (concat2 1 ?y ?z))")
	if err != nil {
		t.Fatal(err)
	}
	if e.IsAtom() || len(e.List) != 4 {
		t.Fatalf("got %v", e)
	}
	inner := e.List[3]
	if inner.IsAtom() || len(inner.List) != 4 || inner.List[0].Atom != "concat2" {
		t.Fatalf("inner = %v", inner)
	}
	if inner.List[1].Atom != "1" {
		t.Fatalf("axis atom = %q", inner.List[1].Atom)
	}
}

func TestParseQuotedString(t *testing.T) {
	e, err := Parse(`(transpose ?x "0 2 1 3")`)
	if err != nil {
		t.Fatal(err)
	}
	if e.List[2].Atom != "0 2 1 3" {
		t.Fatalf("quoted atom = %q", e.List[2].Atom)
	}
}

func TestParseComments(t *testing.T) {
	e, err := Parse("(ewadd ; commutes\n ?x ?y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.List) != 3 {
		t.Fatalf("got %v", e)
	}
}

func TestParseMany(t *testing.T) {
	es, err := ParseMany("(matmul ?a ?x ?y) (matmul ?a ?x ?z)")
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 {
		t.Fatalf("got %d exprs", len(es))
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{"", "(", ")", "(a b", `(a "unterminated)`, "a b"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestEmptyList(t *testing.T) {
	e, err := Parse("()")
	if err != nil {
		t.Fatal(err)
	}
	if e.IsAtom() || len(e.List) != 0 {
		t.Fatalf("got %v", e)
	}
}

func TestRoundTrip(t *testing.T) {
	for _, src := range []string{
		"(matmul ?act ?x ?y)",
		"(split0 (split 1 (conv 1 1 0 0 ?x (concat2 0 ?w1 ?w2))))",
		`(transpose ?x "0 2 1 3")`,
	} {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		e2, err := Parse(e.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", e.String(), err)
		}
		if e.String() != e2.String() {
			t.Fatalf("round trip changed: %q -> %q", e.String(), e2.String())
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: printing then parsing is the identity on parseable input.
	letters := "abcxyz?012 "
	f := func(seed []uint8) bool {
		// Build a random but well-formed S-expression from the seed.
		var b strings.Builder
		depth := 0
		b.WriteByte('(')
		depth++
		for _, s := range seed {
			switch s % 4 {
			case 0:
				b.WriteByte('(')
				depth++
			case 1:
				if depth > 1 {
					b.WriteString(") ")
					depth--
				}
			default:
				b.WriteByte(letters[int(s)%7])
				b.WriteByte(' ')
			}
		}
		for ; depth > 0; depth-- {
			b.WriteByte(')')
		}
		e, err := Parse(b.String())
		if err != nil {
			return true // malformed seeds are fine; only round-trip parseable ones
		}
		e2, err := Parse(e.String())
		return err == nil && e.String() == e2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzParse checks that Parse never panics and that whatever parses
// prints to text that parses back and prints the same. The corpus under
// testdata/fuzz holds an atom starting with ';', which once printed bare
// and read back as a comment.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"(matmul ?act ?x (concat2 1 ?y ?z))",
		`(transpose ?x "0 2 1 3")`,
		"(a ; comment\n b)",
		`(a "" "\"q\"" "x\ty")`,
		"()",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		text := e.String()
		e2, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) printed %q, which does not parse: %v", src, text, err)
		}
		if got := e2.String(); got != text {
			t.Fatalf("Parse(%q) printed %q, which reads back as %q", src, text, got)
		}
	})
}
