package scenario

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"amac/internal/topology"
)

// randSpec draws a random (not necessarily valid) spec whose field values
// all survive a JSON round trip: integral floats in params, nil (not empty)
// maps and slices.
func randSpec(rng *rand.Rand) Spec {
	params := func() topology.Params {
		if rng.Intn(2) == 0 {
			return nil
		}
		p := topology.Params{}
		keys := []string{"n", "r", "p", "c", "side", "k", "d", "rel"}
		for i := rng.Intn(4); i > 0; i-- {
			p[keys[rng.Intn(len(keys))]] = float64(rng.Intn(64)) / 2
		}
		if len(p) == 0 {
			// omitempty drops empty maps, which decode back as nil.
			return nil
		}
		return p
	}
	str := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	var origins []int
	for i := rng.Intn(3); i > 0; i-- {
		origins = append(origins, rng.Intn(100))
	}
	var arrivals []ArrivalSpec
	for i := rng.Intn(3); i > 0; i-- {
		arrivals = append(arrivals, ArrivalSpec{At: rng.Int63n(1000), Node: rng.Intn(100)})
	}
	return Spec{
		Name:        str("", "s1", "unicode-✓"),
		Description: str("", "a description"),
		Topology: TopologySpec{
			Name:       str("line", "rgg", "no-such-family"),
			Params:     params(),
			Seed:       rng.Int63n(1 << 40),
			SeedFactor: rng.Int63n(10000),
		},
		Workload: WorkloadSpec{
			Kind:     str(WorkloadSingleton, WorkloadSingleSource, WorkloadPoisson, WorkloadExplicit, WorkloadConstruction),
			K:        rng.Intn(16),
			Origin:   rng.Intn(16),
			Origins:  origins,
			Span:     rng.Int63n(1000),
			Seed:     rng.Int63n(1 << 40),
			Arrivals: arrivals,
		},
		Algorithm: AlgorithmSpec{Name: str("bmmb", "fmmb"), Params: params()},
		Scheduler: SchedulerSpec{Name: str("", "sync", "slot"), Params: params()},
		Model: ModelSpec{
			Fprog:    rng.Int63n(100),
			Fack:     rng.Int63n(1000),
			EpsAbort: rng.Int63n(10),
		},
		Run: RunSpec{
			Seed:         rng.Int63n(1 << 40),
			Trials:       rng.Intn(16),
			Parallelism:  rng.Intn(8),
			Check:        rng.Intn(2) == 0,
			Trace:        str("", "memory", "stream", "off"),
			Shards:       rng.Intn(4),
			ToQuiescence: rng.Intn(2) == 0,
			Horizon:      rng.Int63n(1 << 30),
			StepLimit:    uint64(rng.Int63n(1 << 40)),
		},
	}
}

// TestSpecJSONRoundTrip is the round-trip property test: for many random
// specs, marshal → parse must reproduce the spec exactly.
func TestSpecJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		s := randSpec(rng)
		buf, err := s.JSON()
		if err != nil {
			t.Fatalf("spec %d: marshal: %v", i, err)
		}
		back, err := Parse(buf)
		if err != nil {
			t.Fatalf("spec %d: parse: %v\n%s", i, err, buf)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("spec %d did not round-trip:\nbefore: %+v\nafter:  %+v\njson:\n%s", i, s, back, buf)
		}
	}
}

// TestSpecZeroValueOmitted asserts minimal specs marshal without noise from
// defaulted sections, so scenario files stay readable.
func TestSpecZeroValueOmitted(t *testing.T) {
	s := Spec{
		Topology:  TopologySpec{Name: "line", Params: topology.Params{"n": 8}},
		Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 2},
		Algorithm: AlgorithmSpec{Name: "bmmb"},
	}
	buf, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"scheduler", "model", "run", "description"} {
		if strings.Contains(string(buf), fmt.Sprintf("%q", absent)) {
			t.Fatalf("zero-valued section %q marshaled:\n%s", absent, buf)
		}
	}
}

// TestParseRejectsUnknownFields guards the strict decoding contract: typos
// in scenario files must error, not silently select defaults.
func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"topology": {"name": "line"}, "topolgy_typo": 3}`))
	if err == nil {
		t.Fatal("unknown field did not error")
	}
	// The removed no_trace key is just another unknown field now.
	_, err = Parse([]byte(`{"topology": {"name": "line"}, "run": {"no_trace": true}}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "no_trace"`) {
		t.Fatalf("no_trace: err = %v, want an unknown-field error", err)
	}
}

// TestValidateRejections feeds Validate one malformed field at a time and
// requires a descriptive error naming the problem.
func TestValidateRejections(t *testing.T) {
	valid := func() Spec {
		return Spec{
			Topology:  TopologySpec{Name: "line", Params: topology.Params{"n": 8}},
			Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 2},
			Algorithm: AlgorithmSpec{Name: "bmmb"},
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("baseline spec invalid: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantSub string
	}{
		{"unknown topology", func(s *Spec) { s.Topology.Name = "moebius" }, "unknown topology"},
		{"unknown topology param", func(s *Spec) { s.Topology.Params = topology.Params{"sides": 3} }, `does not accept parameter "sides"`},
		{"negative seed factor", func(s *Spec) { s.Topology.SeedFactor = -2 }, "seed_factor"},
		{"overflowing seed product", func(s *Spec) {
			s.Topology.SeedFactor = 1 << 40
			s.Run.Seed = 1 << 40
		}, "overflow int64"},
		{"missing workload kind", func(s *Spec) { s.Workload.Kind = "" }, "kind is required"},
		{"unknown workload kind", func(s *Spec) { s.Workload.Kind = "burst" }, `unknown kind "burst"`},
		{"singleton without k", func(s *Spec) { s.Workload.K = 0 }, "singleton needs k >= 1"},
		{"negative origin", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: WorkloadSingleSource, K: 1, Origin: -4}
		}, "negative origin"},
		{"poisson without k", func(s *Spec) { s.Workload = WorkloadSpec{Kind: WorkloadPoisson, Span: 10} }, "poisson needs k >= 1"},
		{"poisson negative span", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: WorkloadPoisson, K: 2, Span: -1}
		}, "negative span"},
		{"explicit without arrivals", func(s *Spec) { s.Workload = WorkloadSpec{Kind: WorkloadExplicit} }, "at least one arrival"},
		{"explicit negative node", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: WorkloadExplicit, Arrivals: []ArrivalSpec{{Node: -1}}}
		}, "negative node"},
		{"explicit negative time", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: WorkloadExplicit, Arrivals: []ArrivalSpec{{At: -5, Node: 0}}}
		}, "negative time"},
		{"unknown algorithm", func(s *Spec) { s.Algorithm.Name = "qmmb" }, "unknown algorithm"},
		{"unknown algorithm param", func(s *Spec) {
			s.Algorithm = AlgorithmSpec{Name: "fmmb", Params: topology.Params{"zeta": 1}}
		}, `does not accept parameter "zeta"`},
		{"unknown scheduler", func(s *Spec) { s.Scheduler.Name = "chaos" }, "unknown scheduler"},
		{"unknown scheduler param", func(s *Spec) {
			s.Scheduler = SchedulerSpec{Name: "slot", Params: topology.Params{"rel": 0.5}}
		}, `does not accept parameter "rel"`},
		{"fprog too small", func(s *Spec) { s.Model.Fprog = 1 }, "fprog must be >= 2"},
		{"fack below fprog", func(s *Spec) { s.Model = ModelSpec{Fprog: 10, Fack: 5} }, "must be >= fprog"},
		{"negative eps_abort", func(s *Spec) { s.Model.EpsAbort = -1 }, "eps_abort"},
		{"negative trials", func(s *Spec) { s.Run.Trials = -3 }, "trials"},
		{"negative parallelism", func(s *Spec) { s.Run.Parallelism = -1 }, "parallelism"},
		{"negative horizon", func(s *Spec) { s.Run.Horizon = -1 }, "negative horizon"},
		{"removed regions", func(s *Spec) { s.Run.Shards, s.Run.Regions = 1, 2 }, `drop "regions"`},
		{"bare trace_file", func(s *Spec) { s.Run.TraceFile = "out.amtr" }, `"trace": "stream"`},
	}
	for _, tc := range cases {
		s := valid()
		tc.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the malformed spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestCheckedInScenarioFiles parses, validates and type-checks every
// scenario file shipped in the repository's scenarios/ directory.
func TestCheckedInScenarioFiles(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no checked-in scenario files found")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Job-spec files (a "sweep" grid over scenario specs) belong to
		// internal/jobs, whose own checked-in-file test covers them.
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(data, &probe); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if _, isJob := probe["sweep"]; isJob {
			continue
		}
		s, err := Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		if s.Name == "" || s.Description == "" {
			t.Errorf("%s: checked-in scenarios must carry name and description", path)
		}
		// The 10^5-node files belong to the gated large-n smoke run; every
		// other file must solve all its trials, in whatever execution and
		// trace mode it selects.
		if strings.HasPrefix(filepath.Base(path), "large-n-") {
			continue
		}
		rep, err := Run(s)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		} else if rep.Solved() != len(rep.Trials) {
			t.Errorf("%s: %d of %d trials solved", path, rep.Solved(), len(rep.Trials))
		}
	}
}

// TestLoadMissingFile exercises the file error path.
func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(os.TempDir(), "no-such-scenario.json")); err == nil {
		t.Fatal("missing file did not error")
	}
}

// TestSpecJSONStable pins the wire format of a representative spec: a
// change that breaks saved scenario files must show up here.
func TestSpecJSONStable(t *testing.T) {
	s := Spec{
		Name:      "pin",
		Topology:  TopologySpec{Name: "rgg", Params: topology.Params{"n": 30, "side": 4}, Seed: 7},
		Workload:  WorkloadSpec{Kind: WorkloadPoisson, K: 3, Span: 100},
		Algorithm: AlgorithmSpec{Name: "bmmb"},
		Scheduler: SchedulerSpec{Name: "contention", Params: topology.Params{"rel": 0.5}},
		Model:     ModelSpec{Fprog: 10, Fack: 200},
		Run:       RunSpec{Seed: 1, Trials: 2, Check: true},
	}
	buf, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"name", "topology", "workload", "algorithm", "scheduler", "model", "run"} {
		if _, ok := m[key]; !ok {
			t.Errorf("wire format lost key %q:\n%s", key, buf)
		}
	}
}
