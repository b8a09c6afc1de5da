// Command s2fa-report explains a recorded run offline: it reads the
// JSONL trace written by `s2fa -trace run.jsonl` (or by
// `s2fa-bench -runtime-metrics FILE`) and renders a markdown or
// plain-text breakdown — stage waterfall with percentiles, slowest
// fresh HLS estimations with their bottleneck verdicts, prune
// attribution, the search's bandit arms and counters, worker
// utilization, the blaze offload-vs-fallback story with per-request
// span trees, and the last Go runtime sample when the run recorded one
// (`-runtime-metrics`).
//
// Usage:
//
//	s2fa-report -trace run.jsonl [-format md|text] [-top 5] [-o report.md]
package main

import (
	"flag"
	"fmt"
	"os"

	"s2fa/internal/obs"
	"s2fa/internal/report"
)

func main() {
	tracePath := flag.String("trace", "", "JSONL trace to explain (required)")
	format := flag.String("format", "md", "output format: md (markdown tables) or text (aligned columns)")
	topN := flag.Int("top", 5, "how many slow estimations to list")
	outPath := flag.String("o", "", "write the report here instead of stdout")
	flag.Parse()

	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "s2fa-report: -trace is required")
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	events, err := obs.ReadJSONL(f)
	f.Close()
	if err != nil {
		fatal(fmt.Errorf("reading trace %s: %w", *tracePath, err))
	}

	switch *format {
	case "md", "text":
	default:
		fatal(fmt.Errorf("unknown -format %q (want md or text)", *format))
	}
	body := report.Render(events, report.Options{
		TopN:     *topN,
		Markdown: *format == "md",
	})

	if *outPath == "" {
		fmt.Print(body)
		return
	}
	if err := os.WriteFile(*outPath, []byte(body), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s2fa-report:", err)
	os.Exit(1)
}
