package fleet

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"solarsched/internal/solar"
)

// A csv trace with a NaN slot power fails its run with the parser's error
// naming the row; the run produces no result, and the other runs of the
// fleet are unaffected.
func TestCSVTraceWithNaNRowFailsTheRun(t *testing.T) {
	tr := solar.MustGenerate(solar.GenConfig{Base: solar.DefaultTimeBase(1), Seed: 5, DayOfYearStart: 120})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	// lines[0] is the time base, lines[1] the column header; poison a
	// daylight slot.
	row := 2 + tr.Base.SlotsPerPeriod*tr.Base.PeriodsPerDay/2
	fields := strings.Split(lines[row], ",")
	fields[3] = "NaN"
	lines[row] = strings.Join(fields, ",")
	dir := t.TempDir()
	bad, good := filepath.Join(dir, "nan.csv"), filepath.Join(dir, "good.csv")
	if err := os.WriteFile(bad, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	fs := &FileSpec{
		Defaults: RunSpec{Graph: "wam", Scheduler: "inter", Train: &TrainSpec{Days: 1, Seed: 5, DayOfYear: 120}},
		Runs: []RunSpec{
			{ID: "nan", Trace: TraceSpec{Kind: "csv", Path: bad}},
			{ID: "good", Trace: TraceSpec{Kind: "csv", Path: good}},
		},
	}
	specs, err := fs.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nan := rep.Results[0]
	if nan.Err == nil {
		t.Fatalf("run over a NaN trace succeeded: harvested %v", nan.Result.Harvested)
	}
	want := "[" + strings.Join(strings.Split(lines[row], ","), " ") + "]"
	if !strings.Contains(nan.Err.Error(), want) || !strings.Contains(nan.Err.Error(), "not a finite non-negative number") {
		t.Fatalf("error %q does not name row %s", nan.Err, want)
	}
	if nan.Result != nil {
		t.Fatalf("failed run carries a result: %+v", nan.Result)
	}
	if rr := rep.Results[1]; rr.Err != nil || rr.Result == nil {
		t.Fatalf("good run: err %v, result %v", rr.Err, rr.Result)
	}
}
