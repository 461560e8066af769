// Command perfbench is the repository benchmark. It stands the serving
// stack up in process from its public constructors, drives one seeded
// workload for a fixed window, checks the outputs, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics). The
// last line of standard output is the result as one JSON object.
//
//	go build -o perfbench . && ./perfbench --workload online-mixed --seed 1 --seconds 25 --trace 0
//
// See README.md for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its run function.
var workloads = map[string]func(options) (*result, error){
	wOnline:  runOnlineMixed,
	wCamera:  runCameraStream,
	wOffline: runOfflineReal,
}

func main() {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	workload := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 1, "seed of the workload's inputs and schedule")
	seconds := flag.Int("seconds", 25, "length of the measurement, in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, err := run(options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := res.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}
