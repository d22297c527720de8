package main

import (
	"os"
	"strings"
	"testing"
)

const statusSample = `Name:	splitcnn
Umask:	0022
State:	S (sleeping)
VmPeak:	 1875812 kB
VmSize:	 1875812 kB
VmHWM:	   28792 kB
VmRSS:	   27540 kB
Threads:	9
`

func TestParseVmHWM(t *testing.T) {
	got, err := parseVmHWM(strings.NewReader(statusSample))
	if err != nil || got != 28792 {
		t.Fatalf("parseVmHWM = %d, %v; want 28792", got, err)
	}
	for name, text := range map[string]string{
		"missing":   "Name:\tx\nVmRSS:\t 1 kB\n",
		"no unit":   "VmHWM:\t 12\n",
		"bad value": "VmHWM:\t 1x2 kB\n",
		"bad unit":  "VmHWM:\t 12 MB\n",
	} {
		if _, err := parseVmHWM(strings.NewReader(text)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestParseVmHWMOfThisProcess(t *testing.T) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Skip("no /proc on this platform")
	}
	defer f.Close()
	if kib, err := parseVmHWM(f); err != nil || kib <= 0 {
		t.Fatalf("own VmHWM = %d, %v", kib, err)
	}
}
