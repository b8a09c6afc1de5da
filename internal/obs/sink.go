package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// jsonlSink streams events as one JSON object per line — the trace's
// native format. It does not close the underlying writer; the caller
// owns the file handle.
type jsonlSink struct {
	bw  *bufio.Writer
	enc *json.Encoder
	n   int   // events seen, so a Close error names the failing index
	err error // first Encode error, wrapped with its event index
}

// NewJSONL returns a sink streaming events to w as JSON lines.
func NewJSONL(w io.Writer) Sink {
	bw := bufio.NewWriter(w)
	return &jsonlSink{bw: bw, enc: json.NewEncoder(bw)}
}

func (s *jsonlSink) Emit(e Event) {
	if s.err != nil {
		s.n++
		return
	}
	if err := s.enc.Encode(e); err != nil {
		s.err = fmt.Errorf("obs: encoding event %d (%s %q): %w", s.n, e.Ph, e.Name, err)
	}
	s.n++
}

func (s *jsonlSink) Close() error {
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}

// chromeSink buffers events and writes one Chrome trace_event JSON
// document on Close (chrome://tracing and Perfetto load it directly).
type chromeSink struct {
	w      io.Writer
	events []Event
}

// NewChrome returns a sink that renders the whole trace as a Chrome
// trace_event file when closed.
func NewChrome(w io.Writer) Sink {
	return &chromeSink{w: w}
}

func (s *chromeSink) Emit(e Event) { s.events = append(s.events, e) }

func (s *chromeSink) Close() error { return WriteChrome(s.events, s.w) }

// multiSink fans every event out to several sinks (e.g. a JSONL file
// plus the in-memory sink `s2fa -summary` renders).
type multiSink struct{ sinks []Sink }

// Multi combines sinks; Close closes each and returns the first error.
func Multi(sinks ...Sink) Sink {
	if len(sinks) == 1 {
		return sinks[0]
	}
	return &multiSink{sinks: sinks}
}

func (m *multiSink) Emit(e Event) {
	for _, s := range m.sinks {
		s.Emit(e)
	}
}

func (m *multiSink) Close() error {
	var first error
	for _, s := range m.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// MemorySink buffers every emitted event in order, for tests and
// post-hoc conversion.
type MemorySink struct{ events []Event }

// NewMemory returns an in-memory sink; Events reads it back.
func NewMemory() *MemorySink { return &MemorySink{} }

func (s *MemorySink) Emit(e Event) { s.events = append(s.events, e) }

func (s *MemorySink) Close() error { return nil }

// Events returns the emitted events in order.
func (s *MemorySink) Events() []Event { return s.events }

// ReadJSONL decodes a JSONL trace stream back into events.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: event %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}
