package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"
)

// choice is a flag that names one of a fixed list of constants, listed
// in their order so that i is the constant; the first is the default.
// Any other name fails flag parsing, which prints the error, listing
// the names, and the usage, and exits 2.
type choice struct {
	names []string
	i     int
}

func (c *choice) String() string {
	if c == nil || c.names == nil {
		return ""
	}
	return c.names[c.i]
}

func (c *choice) Set(s string) error {
	i := slices.Index(c.names, s)
	if i < 0 {
		return fmt.Errorf("known: %s", strings.Join(c.names, ", "))
	}
	c.i = i
	return nil
}

// choiceFlags defines -extractor (a tensat.Extractor), -filter (a
// tensat.CycleFilter) and -scale (a models.Scale).
func choiceFlags(fs *flag.FlagSet) (extractor, filter, scale *choice) {
	extractor = &choice{names: []string{"ilp", "greedy"}}
	filter = &choice{names: []string{"efficient", "vanilla", "none"}}
	scale = &choice{names: []string{"test", "full"}}
	fs.Var(extractor, "extractor", "extraction algorithm: ilp or greedy")
	fs.Var(filter, "filter", "cycle filtering: efficient, vanilla or none")
	fs.Var(scale, "scale", "model scale: test or full")
	return extractor, filter, scale
}
