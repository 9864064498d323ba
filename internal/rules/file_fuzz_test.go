package rules

import (
	"os"
	"strings"
	"testing"
)

// FuzzParseRuleSet checks that the .rules decoder never panics, and
// that whatever it accepts prints back, one Rule.String() per line, to
// text that parses to a rule set with the same Hash. It is seeded with
// the shipped profiles and with malformed lines.
func FuzzParseRuleSet(f *testing.F) {
	for _, path := range []string{"../../profiles/rules/algebra.rules", "../../profiles/rules/fusion.rules"} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []string{
		"ewadd-comm: (ewadd ?x ?y) => (ewadd ?y ?x) ; comment",
		"t: (transpose ?x \"1 0\") <=> (transpose ?x \"1 0\")",
		"no arrow: (relu ?x)",
		": (relu ?x) => ?x",
		"escape: (relu ?x) => ?y",
		"dup: (relu ?x) => ?x\ndup: (tanh ?x) => ?x",
		"open: (relu ?x => ?x",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := ParseRuleSet("fuzz.rules", data)
		if err != nil {
			return
		}
		lines := make([]string, len(rs))
		for i, r := range rs {
			lines[i] = r.String()
		}
		text := strings.Join(lines, "\n")
		again, err := ParseRuleSet("printed.rules", []byte(text))
		if err != nil {
			t.Fatalf("%q printed as %q, which does not parse: %v", data, text, err)
		}
		if Hash(again) != Hash(rs) {
			t.Fatalf("%q printed as %q, which hashes differently", data, text)
		}
	})
}
