package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	"tensat"
	"tensat/internal/models"
)

func TestChoiceFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // the extractor, filter and scale, or the error's known list
	}{
		{nil, fmt.Sprint(tensat.ExtractILP, tensat.FilterEfficient, models.ScaleTest)},
		{[]string{"-extractor", "greedy", "-filter", "none", "-scale", "full"},
			fmt.Sprint(tensat.ExtractGreedy, tensat.FilterNone, models.ScaleFull)},
		{[]string{"-filter", "vanilla"}, fmt.Sprint(tensat.ExtractILP, tensat.FilterVanilla, models.ScaleTest)},
		{[]string{"-filter", "vanila"}, "known: efficient, vanilla, none"},
		{[]string{"-extractor", "gredy"}, "known: ilp, greedy"},
		{[]string{"-scale", "paper"}, "known: test, full"},
	} {
		fs := flag.NewFlagSet("tensat", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		extractor, filter, scale := choiceFlags(fs)
		got := ""
		if err := fs.Parse(tc.args); err != nil {
			got = err.Error()
		} else {
			got = fmt.Sprint(tensat.Extractor(extractor.i), tensat.CycleFilter(filter.i), models.Scale(scale.i))
		}
		if !strings.HasSuffix(got, tc.want) {
			t.Errorf("%q: got %q, want %q", tc.args, got, tc.want)
		}
	}
}
