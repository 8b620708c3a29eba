package service

import (
	"encoding/json"
	"flag"
	"math"
	"reflect"
	"strings"
	"testing"

	"dhisq/internal/artifact"
	"dhisq/internal/machine"
	"dhisq/internal/workloads"
)

// jsonTags lists a struct's wire tags in field order, flattening embedded
// structs the way encoding/json does and skipping `json:"-"` fields.
func jsonTags(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		switch {
		case f.Anonymous && tag == "":
			out = append(out, jsonTags(f.Type)...)
		case tag != "-":
			out = append(out, tag)
		}
	}
	return out
}

// The wire did not move when Request and JobStatus took over from the
// daemon's private submitRequest/jobResponse: these are those structs' tags,
// verbatim. The response's order is pinned too (it is the encoding order);
// the submission's is not — no reader depends on it.
func TestWireNamesPinned(t *testing.T) {
	submission := []string{
		"qasm,omitempty", "bench,omitempty", "scale,omitempty", "shots", "seed,omitempty",
		"mapping,omitempty", "topo,omitempty", "link_bw,omitempty", "router_ports,omitempty",
		"placement,omitempty", "schedule,omitempty", "collective,omitempty", "chips,omitempty",
		"epr_latency,omitempty", "params,omitempty", "sweep,omitempty",
	}
	got := map[string]bool{}
	for _, tag := range jsonTags(reflect.TypeOf(Submission{})) {
		got[tag] = true
	}
	if len(got) != len(submission) {
		t.Errorf("Submission has %d wire fields, want %d: %v", len(got), len(submission), got)
	}
	for _, tag := range submission {
		if !got[tag] {
			t.Errorf("Submission lost wire field %q", tag)
		}
	}

	response := []string{
		"id", "state", "shots", "seed", "fingerprint,omitempty", "cache_hit", "batched",
		"mesh_w,omitempty", "mesh_h,omitempty", "placement,omitempty", "schedule,omitempty",
		"mapping,omitempty", "chips,omitempty", "epr_pairs,omitempty", "makespan_cycles,omitempty",
		"histogram,omitempty", "points,omitempty", "error,omitempty",
	}
	if got := jsonTags(reflect.TypeOf(JobStatus{})); !reflect.DeepEqual(got, response) {
		t.Errorf("JobStatus wire fields moved:\n got %v\nwant %v", got, response)
	}
}

// A Submission survives the wire: what dhisq-sim marshals is what the
// daemon decodes, and the fields that never travel stay behind.
func TestSubmissionRoundTrip(t *testing.T) {
	sub := Submission{Bench: "dvqe", Scale: 2, Request: Request{
		Circuit: ghz(2), MeshW: 3, // never on the wire
		Shots: 4, Seed: 7, Topo: "torus", LinkBW: 4, RouterPorts: 2, Placement: "interaction",
		Schedule: "padded", Collective: "ring", Chips: 2, EPRLatency: 150,
		Params: map[string]float64{"t": 0.5},
	}}
	b, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	var back Submission
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	sub.Circuit, sub.MeshW = nil, 0
	if !reflect.DeepEqual(back, sub) {
		t.Fatalf("round trip lost something:\n sent %+v\n got  %+v\n wire %s", sub, back, b)
	}
}

// Every option on the wire has a flag and the other way round: the flag
// name is the wire name with dashes (Mapping, Params and Sweep have no flag
// form; Shots and Seed are the CLI's own).
func TestFlagsCoverOptions(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	new(Request).RegisterFlags(fs)
	flags := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { flags[f.Name] = true })
	noFlag := map[string]bool{"shots": true, "seed": true, "mapping": true, "params": true, "sweep": true}
	for _, tag := range jsonTags(reflect.TypeOf(Request{})) {
		name, _, _ := strings.Cut(tag, ",")
		if flagName := strings.ReplaceAll(name, "_", "-"); !noFlag[name] && !flags[flagName] {
			t.Errorf("wire option %q has no -%s flag", name, flagName)
		} else {
			delete(flags, flagName)
		}
	}
	if len(flags) != 0 {
		t.Errorf("flags with no wire option: %v", flags)
	}
}

// The fingerprint cannot forget an option: for every wire field of Request
// that is not per-run data, two requests differing only there are admitted
// under different (fingerprint, pool key) pairs. A new tagged field fails
// here until it is given a variant below — or a place on the per-run list.
func TestEveryOptionReachesThePoolKey(t *testing.T) {
	perRun := map[string]bool{"Shots": true, "Seed": true, "Params": true, "Sweep": true}
	type variant struct{ base, alt func(*Request) }
	set := func(f func(*Request)) variant { return variant{base: func(*Request) {}, alt: f} }
	variants := map[string]variant{
		"Mapping":     set(func(r *Request) { r.Mapping = []int{1, 0, 2, 3} }),
		"Topo":        set(func(r *Request) { r.Topo = "torus" }),
		"LinkBW":      set(func(r *Request) { r.LinkBW = 3 }),
		"RouterPorts": set(func(r *Request) { r.RouterPorts = 2 }),
		"Placement":   set(func(r *Request) { r.Placement = "rowmajor" }),
		"Schedule":    set(func(r *Request) { r.Schedule = "padded" }),
		"Collective":  set(func(r *Request) { r.Collective = "ring" }),
		"Chips":       set(func(r *Request) { r.Chips = 2 }),
		// The EPR latency only means something on a multi-chip machine.
		"EPRLatency": {base: func(r *Request) { r.Chips = 2 }, alt: func(r *Request) { r.Chips, r.EPRLatency = 2, 40 }},
	}

	admit := func(mutate func(*Request)) poolKey {
		t.Helper()
		req := Request{Circuit: ghz(4), Shots: 1, Seed: 1}
		mutate(&req)
		a, err := Resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		return poolKeyOf(a)
	}
	rt := reflect.TypeOf(Request{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Tag.Get("json") == "-" || perRun[f.Name] {
			continue
		}
		v, ok := variants[f.Name]
		if !ok {
			t.Errorf("Request.%s is on the wire but this test has no variant for it: add one, or list it as per-run data", f.Name)
			continue
		}
		if admit(v.base) == admit(v.alt) {
			t.Errorf("Request.%s does not reach the pool key: two jobs differing only there would share replicas", f.Name)
		}
	}
}

// TestPoolKeyCoversRuntimeConfig is the audit of the pool key against what a
// replica is built from: every machine.Config field is perturbed in turn
// and must move the fingerprint (and the pool key through it), the pool key
// alone, or neither — and a field in neither says why sharing replicas
// across it is safe. A new Config field fails here until it is classified.
func TestPoolKeyCoversRuntimeConfig(t *testing.T) {
	const fingerprint, keyOnly, neither = "fingerprint", "pool key only", "neither"
	rows := []struct {
		field, want, why string
		base, alt        func(*Request, *machine.Config)
	}{
		{field: "Net", want: fingerprint, alt: func(_ *Request, c *machine.Config) { c.Net.LinkSerialization = 3 }},
		{field: "Durations", want: fingerprint, alt: func(_ *Request, c *machine.Config) { c.Durations.TwoQubit++ }},
		{field: "MeasLatency", want: fingerprint, alt: func(_ *Request, c *machine.Config) { c.MeasLatency++ }},
		{field: "Placement", want: fingerprint, alt: func(_ *Request, c *machine.Config) { c.Placement = "rowmajor" }},
		{field: "Schedule", want: fingerprint, alt: func(_ *Request, c *machine.Config) { c.Schedule = "padded" }},
		{field: "Chips", want: fingerprint, alt: func(_ *Request, c *machine.Config) { c.Chips = 2 }},
		{field: "EPRLatency", want: fingerprint,
			base: func(_ *Request, c *machine.Config) { c.Chips = 2 },
			alt:  func(_ *Request, c *machine.Config) { c.Chips, c.EPRLatency = 2, 40 }},
		// Collective is both: on/off is compiled in, the schedule name is
		// only what the replica's post-run reduce runs with.
		{field: "Collective", want: fingerprint, alt: func(_ *Request, c *machine.Config) { c.Collective = "ring" }},
		{field: "Collective", want: keyOnly,
			base: func(_ *Request, c *machine.Config) { c.Collective = "ring" },
			alt:  func(_ *Request, c *machine.Config) { c.Collective = "tree" }},
		{field: "Backend", want: keyOnly,
			base: func(_ *Request, c *machine.Config) { c.Backend = machine.BackendSeeded },
			alt:  func(_ *Request, c *machine.Config) { c.Backend = machine.BackendStateVec }},
		{field: "Deadline", want: keyOnly, alt: func(_ *Request, c *machine.Config) { c.Deadline = 600 }},
		{field: "Seed", want: neither, why: "Reset(seed) re-seeds a pooled machine per shot",
			alt: func(r *Request, c *machine.Config) { r.Seed, c.Seed = 9, 9 }},
		{field: "Artifacts", want: neither, why: "which cache serves a compile changes nothing about its output",
			alt: func(_ *Request, c *machine.Config) { c.Artifacts = artifact.New(2) }},
		{field: "LogEvents", want: neither, why: "Resolve clears it: nothing downstream of an Admission can read a TELF log",
			alt: func(_ *Request, c *machine.Config) { c.LogEvents = true }},
	}
	admit := func(mutate func(*Request, *machine.Config)) (artifact.Fingerprint, poolKey) {
		t.Helper()
		cfg := machine.DefaultConfig(4)
		req := Request{Circuit: ghz(4), Shots: 1, Seed: 1, Cfg: &cfg}
		if mutate != nil {
			mutate(&req, &cfg)
		}
		a, err := Resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		return a.Fingerprint, poolKeyOf(a)
	}
	classified := map[string]bool{}
	for _, row := range rows {
		classified[row.field] = true
		baseFP, basePK := admit(row.base)
		altFP, altPK := admit(row.alt)
		got := neither
		switch {
		case altFP != baseFP:
			got = fingerprint
		case altPK != basePK:
			got = keyOnly
		}
		if got != row.want {
			t.Errorf("machine.Config.%s moves %s, the audit says %s", row.field, got, row.want)
		}
		if row.want == neither && row.why == "" {
			t.Errorf("machine.Config.%s is in no key and the audit does not say why that is safe", row.field)
		}
	}
	rt := reflect.TypeOf(machine.Config{})
	for i := 0; i < rt.NumField(); i++ {
		if name := rt.Field(i).Name; !classified[name] {
			t.Errorf("machine.Config.%s is not in the audit: say whether replicas built with different values may be shared", name)
		}
	}
}

// A job's shot records are allocated up front, so one request must not be
// able to ask for more than the daemon can hold: Resolve refuses shots ×
// sweep points above MaxJobShots, naming the bound, and accepts it exactly.
func TestResolveBoundsJobShots(t *testing.T) {
	sweep := make([]map[string]float64, 4)
	for k := range sweep {
		sweep[k] = workloads.QFTSweepPoint(3, k)
	}
	cases := []struct {
		req Request
		ok  bool
	}{
		{Request{Circuit: ghz(2), Shots: MaxJobShots}, true},
		{Request{Circuit: ghz(2), Shots: MaxJobShots + 1}, false},
		{Request{Circuit: ghz(2), Shots: 10_000_000}, false},
		{Request{Circuit: ghz(2), Shots: math.MaxInt}, false},
		{Request{Circuit: workloads.QFTSweep(3), Shots: MaxJobShots / 4, Sweep: sweep}, true},
		{Request{Circuit: workloads.QFTSweep(3), Shots: MaxJobShots/4 + 1, Sweep: sweep}, false},
	}
	for _, c := range cases {
		_, err := Resolve(c.req)
		if ok := err == nil; ok != c.ok {
			t.Errorf("%d shots × %d sweep points: accepted %v (%v), want %v", c.req.Shots, len(c.req.Sweep), ok, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "MaxJobShots") {
			t.Errorf("%d shots: refusal %q does not name MaxJobShots", c.req.Shots, err)
		}
	}
}
