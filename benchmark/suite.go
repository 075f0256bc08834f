package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// document is what a run of all workloads prints and --compare reads.
type document struct {
	Meta    map[string]any     `json:"meta"`
	Runs    []suiteRun         `json:"runs"`
	Derived map[string]float64 `json:"derived"`
}

type suiteRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// values returns the metric's value in every run of the workload with
// the given trace setting, in run order.
func (d *document) values(workload, metric string, trace int) []float64 {
	var out []float64
	for _, r := range d.Runs {
		if v, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, v.Value)
		}
	}
	return out
}

// runSuite runs every workload reps times untraced (seeds seed,
// seed+1, …) and, when asked, once traced, each run in a fresh child
// process, and prints the document.
func runSuite(o options, reps int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	doc := document{Meta: hostInfo(), Derived: map[string]float64{}}
	doc.Meta["commit"], doc.Meta["seed"], doc.Meta["seconds"] = commit(), o.seed, o.seconds
	doc.Meta["command"] = strings.Join(os.Args, " ")
	child := func(w workload, seed uint64, trace int) error {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		run := suiteRun{Workload: w.name, Seed: seed, Trace: trace}
		if err := json.Unmarshal(lines[len(lines)-1], &run.Result); err != nil {
			return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
		}
		doc.Runs = append(doc.Runs, run)
		return nil
	}
	for rep := 0; rep < reps; rep++ {
		for _, w := range workloads {
			if err := child(w, o.seed+uint64(rep), 0); err != nil {
				return err
			}
		}
	}
	if o.trace {
		for _, w := range workloads {
			if err := child(w, o.seed, 1); err != nil {
				return err
			}
			// End-to-end metrics come from the untraced runs; the traced
			// run's own median against theirs is what tracing costs.
			traced := doc.values(w.name, "trace.e2e_p50_ms", 1)
			doc.Derived["trace.overhead_share."+w.name] = traced[0]/median(doc.values(w.name, "e2e_p50_ms", 0)) - 1
		}
	}
	// Same input, same crypto, other engine: the difference is what the
	// actor path, its codec, its transport and the journal cost a round.
	doc.Derived["distributed.round_minus_inprocess_ms"] =
		median(doc.values("cluster_trap", "e2e_p50_ms", 0)) - median(doc.values("round_trap", "e2e_p50_ms", 0))

	body, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(body))
	return err
}
