package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
)

// spec is the part of BENCHMARK.json the benchmark reads: the workloads
// and metrics it declares. It is the single list of metric names and
// units; the code computes values and the emitter checks them against it.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lookup returns the declared metric with this name from either list.
func (s *spec) lookup(name string) (metricSpec, bool) {
	for _, l := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range l {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

// selectMetrics returns the metrics a run prints: every end-to-end metric for
// an untraced run, every per-layer metric for a traced one. Each value
// must be computed, finite, and in the declared unit; end-to-end values
// must also be nonzero, since a regression bound is a share of them.
// Per-layer metrics of a layer the workload never calls read 0. A
// computed metric the spec does not declare is an error, so a misspelt
// name cannot go unnoticed.
func (s *spec) selectMetrics(computed map[string]metric, traced bool) (map[string]metric, error) {
	for name := range computed {
		if _, ok := s.lookup(name); !ok {
			return nil, fmt.Errorf("metric %q is computed but not declared in BENCHMARK.json", name)
		}
	}
	decl := s.EndToEnd
	if traced {
		decl = s.PerLayer
	}
	out := make(map[string]metric, len(decl))
	for _, d := range decl {
		m, ok := computed[d.Name]
		switch {
		case !ok && traced:
			m = metric{Value: 0, Unit: d.Unit}
		case !ok:
			return nil, fmt.Errorf("end-to-end metric %q was not measured", d.Name)
		case m.Unit != d.Unit:
			return nil, fmt.Errorf("metric %q measured in %q, declared in %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return nil, fmt.Errorf("metric %q is not finite: %v", d.Name, m.Value)
		case !traced && m.Value == 0:
			return nil, fmt.Errorf("end-to-end metric %q measured 0", d.Name)
		}
		out[d.Name] = m
	}
	return out, nil
}
