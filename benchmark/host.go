package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// procField returns the value of the first "key: value" line of a /proc
// file, "" if the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == key {
			return strings.TrimSpace(value)
		}
	}
	return ""
}

// residentMB is the process's resident set now.
func residentMB() float64 {
	body, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(body))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// hostInfo is the metadata printed beside every result; it is not a
// metric.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        procField("/proc/cpuinfo", "model name"),
		"go":         runtime.Version(),
		"transport":  "TCP loopback, generator and deployment in one process",
	}
}
