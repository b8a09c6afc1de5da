package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is the Chrome trace_event wire format (the JSON the
// chrome://tracing and Perfetto loaders accept). Timestamps are
// microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome renders events as one Chrome trace_event document. Span
// end events inherit the name/category of their begin, so a JSONL
// stream read back with ReadJSONL (whose E records carry only the span
// id) renders too. Each track gets a thread_name metadata record: tid 0 is the
// compile/DSE pipeline, higher tids are DSE workers.
func WriteChrome(events []Event, w io.Writer) error {
	type spanInfo struct{ cat, name string }
	begins := map[int64]spanInfo{}
	tids := map[int]bool{}
	doc := chromeDoc{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for _, e := range events {
		tids[e.TID] = true
		ce := chromeEvent{
			Name: e.Name, Cat: e.Cat, Ph: e.Ph,
			TS: float64(e.NS) / 1e3, PID: 1, TID: e.TID,
			Args: e.Args,
		}
		switch e.Ph {
		case PhaseBegin:
			begins[e.ID] = spanInfo{cat: e.Cat, name: e.Name}
		case PhaseEnd:
			if si, ok := begins[e.ID]; ok && ce.Name == "" {
				ce.Name, ce.Cat = si.name, si.cat
			}
		case PhaseInstant:
			ce.S = "t"
		case PhaseCounter:
			// Counter samples keep their args {value: N}.
		default:
			return fmt.Errorf("obs: unknown phase %q", e.Ph)
		}
		if e.VM != nil {
			args := make(map[string]any, len(ce.Args)+1)
			for k, v := range ce.Args {
				args[k] = v
			}
			args["vmin"] = *e.VM
			ce.Args = args
		}
		doc.TraceEvents = append(doc.TraceEvents, ce)
	}

	var order []int
	for tid := range tids { //determinism:allow — keys are collected then sorted below

		order = append(order, tid)
	}
	sort.Ints(order)
	meta := make([]chromeEvent, 0, len(order))
	for _, tid := range order {
		name := "pipeline"
		if tid > 0 {
			name = fmt.Sprintf("dse-worker-%d", tid-1)
		}
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	doc.TraceEvents = append(meta, doc.TraceEvents...)

	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
