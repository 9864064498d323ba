package exp

import (
	"strings"
	"testing"
	"time"
)

func TestFormatTable3(t *testing.T) {
	s := FormatTable3([]*ModelRun{{Model: "M", TensatExplore: time.Second, TensatExtract: 2 * time.Second}})
	if !strings.Contains(s, "Table 3") || !strings.Contains(s, "1.000s") || !strings.Contains(s, "2.000s") {
		t.Fatalf("bad output:\n%s", s)
	}
}

func TestFormatTable4(t *testing.T) {
	s := FormatTable4([]Table4Row{{Model: "M", Original: 10, Greedy: 12, ILP: 8}})
	for _, want := range []string{"Table 4", "10.0us", "12.0us", "8.0us"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
}

func TestFormatTable6(t *testing.T) {
	s := FormatTable6([]Table6Row{{
		Model: "M", KMulti: 2,
		Vanilla: time.Minute, VanillaTimedOut: true,
		Efficient: time.Second,
	}})
	if !strings.Contains(s, ">60.000s") || !strings.Contains(s, "1.000s") {
		t.Fatalf("timeout marker wrong:\n%s", s)
	}
}

func TestFormatFigure4IncludesK2Row(t *testing.T) {
	s := FormatFigure4([]*ModelRun{
		{Model: "NasRNN", TasoSpeedup: 10, TensatSpeedup: 20},
		{Model: "Incept. k=2", TensatSpeedup: 24},
	})
	if !strings.Contains(s, "Incept. k=2") {
		t.Fatalf("k=2 row missing:\n%s", s)
	}
	// The TASO column is dashed for the k=2 row.
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "Incept. k=2") && !strings.Contains(line, "-") {
			t.Fatalf("k=2 row should dash the TASO column: %q", line)
		}
	}
}

func TestFormatFigure5(t *testing.T) {
	s := FormatFigure5([]*ModelRun{{
		Model: "M", TasoTotal: 10 * time.Second, TasoBest: 5 * time.Second,
		TensatExplore: 400 * time.Millisecond, TensatExtract: 600 * time.Millisecond,
	}})
	if !strings.Contains(s, "1.000s") || !strings.Contains(s, "10.0x") {
		t.Fatalf("ratio missing:\n%s", s)
	}
}

func TestFormatFigure6(t *testing.T) {
	s := FormatFigure6(
		[]CurvePoint{{At: time.Second, Speedup: 5}},
		[]CurvePoint{{At: time.Millisecond, Speedup: 2}})
	if !strings.Contains(s, "TENSAT") || !strings.Contains(s, "TASO") {
		t.Fatalf("systems missing:\n%s", s)
	}
}

func TestErrPercentPropagation(t *testing.T) {
	// speedup = orig/opt - 1; d(speedup)/d(opt) = -orig/opt^2, so the
	// stderr in percent is orig/opt^2 * stderr * 100.
	if got := errPercent(200, 100, 1); got != 2 {
		t.Fatalf("errPercent = %v, want 2", got)
	}
	if got := errPercent(200, 0, 1); got != 0 {
		t.Fatalf("errPercent with zero opt = %v", got)
	}
}

func TestConfigClamps(t *testing.T) {
	c := Default()
	if c.NodeLimit <= 0 || c.TasoN <= 0 || c.Runs <= 0 {
		t.Fatalf("bad defaults: %+v", c)
	}
	f := Full()
	if f.NodeLimit < c.NodeLimit || f.TasoN < c.TasoN {
		t.Fatalf("Full() not larger than Default(): %+v vs %+v", f, c)
	}
}
