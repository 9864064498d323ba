package main

import (
	"fmt"
	"testing"

	"tensat/internal/models"
)

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		views string // "" means a usage error
		full  bool
	}{
		{[]string{"-all"}, "[table 1 table 3 table 4 table 5 table 6 fig 4 fig 5 fig 6 fig 7]", false},
		{[]string{"-table", "3"}, "[table 3]", false},
		{[]string{"-fig", "7", "-table", "5"}, "[table 5 fig 7]", false},
		{[]string{"-config", "full", "-fig", "4"}, "[fig 4]", true},
		{[]string{"-config", "ful", "-all"}, "", false},
		{[]string{"-table", "2"}, "", false},
		{[]string{"-fig", "9"}, "", false},
		{[]string{"-table", "x"}, "", false},
		{nil, "", false},
	} {
		cfg, views, err := parse(tc.args)
		if tc.views == "" {
			if err == nil {
				t.Errorf("%q: no usage error", tc.args)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		var got []string
		for _, v := range views {
			got = append(got, fmt.Sprintf("%s %d", v.Kind, v.N))
		}
		if fmt.Sprint(got) != tc.views || (cfg.Scale == models.ScaleFull) != tc.full {
			t.Errorf("%q: views %v, full scale %v; want %s, %v", tc.args, got, cfg.Scale == models.ScaleFull, tc.views, tc.full)
		}
	}
}
