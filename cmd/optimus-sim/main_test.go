package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// goldenCases pins optimus-sim's report for each scenario family: spatial
// and temporal closed loop, 4K pages, open-loop serving under both
// admission policies, chaos, and the telemetry reports.
var goldenCases = []struct{ name, args string }{
	{"spatial_mb", "-accel MB -jobs 2 -duration 1ms"},
	{"temporal_ll_wrr", "-accel LL -jobs 2 -temporal -slice 1ms -policy wrr -duration 3ms"},
	{"pages_4k", "-pages 4k -duration 1ms"},
	{"load_poisson_slo", "-jobs 2 -duration 5ms -load kind=poisson,rate=15000 -slo 500us"},
	{"load_bursty_token", "-duration 5ms -load kind=bursty,policy=token,tokrate=9000"},
	{"chaos", "-jobs 2 -chaos seed=7,rate=10000"},
	{"telemetry", "-duration 1ms -metrics -profile -critpath"},
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var got bytes.Buffer
			if err := run(strings.Fields(tc.args), &got); err != nil {
				t.Fatalf("optimus-sim %s: %v", tc.args, err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("optimus-sim %s: output differs from %s\n--- got\n%s--- want\n%s", tc.args, path, got.Bytes(), want)
			}
		})
	}
}

// TestRejectsBadScenario feeds input that used to panic (negative job
// count, zero queue capacity), hang (non-positive or non-finite arrival
// rates clamp the inter-arrival gap to 1 ps), or be silently misread
// (unknown page size or policy). Each must fail with an error naming the
// input before any simulation runs.
func TestRejectsBadScenario(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-jobs -1", "-jobs"},
		{"-jobs 0", "-jobs"},
		{"-load kind=poisson,rate=0", "rate"},
		{"-load kind=poisson,rate=NaN", "rate"},
		{"-load kind=poisson,rate=-5", "rate"},
		{"-load kind=bursty,rate=+Inf", "rate"},
		{"-load qcap=0", "queue capacity"},
		{"-load qcap=-3", "queue capacity"},
		{"-load batch=0", "batch"},
		{"-load batch=-1", "batch"},
		{"-load policy=token,tokrate=NaN", "token rate"},
		{"-load policy=token,tokrate=-5", "token rate"},
		{"-load tokrate=-5", "token rate"},
		{"-load tokburst=NaN", "token burst"},
		{"-pages 1g", "-pages"},
		{"-policy bogus", "policy"},
		{"-temporal -jobs 2 -policy bogus", "policy"},
	} {
		var out bytes.Buffer
		err := run(strings.Fields(tc.args), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("optimus-sim %s: err = %v, want one mentioning %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("optimus-sim %s: wrote a report for rejected input:\n%s", tc.args, out.Bytes())
		}
	}
}
