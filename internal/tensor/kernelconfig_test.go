package tensor

import (
	"strings"
	"testing"
)

// parseKernelConfigCases is the -gemm-block table: inputs parsed against
// DefaultKernelConfig (256x1024:4x4) as the current configuration. A nil
// want means the input must be rejected.
var parseKernelConfigCases = []struct {
	in   string
	want *KernelConfig
}{
	{"256x512", &KernelConfig{KC: 256, NC: 512, MR: 4, NR: 4}},
	{"256x1024:2x8", &KernelConfig{KC: 256, NC: 1024, MR: 2, NR: 8}},
	{"128x64:8x2", &KernelConfig{KC: 128, NC: 64, MR: 8, NR: 2}},
	{"x2048", &KernelConfig{KC: kcBlock, NC: 2048, MR: 4, NR: 4}},
	{"64x", &KernelConfig{KC: 64, NC: ncBlock, MR: 4, NR: 4}},
	{"x", &KernelConfig{KC: kcBlock, NC: ncBlock, MR: 4, NR: 4}},
	{":2x8", &KernelConfig{KC: kcBlock, NC: ncBlock, MR: 2, NR: 8}},
	{"", &KernelConfig{KC: kcBlock, NC: ncBlock, MR: 4, NR: 4}},

	// Trailing text and extra fields are errors, not ignored: KC changes
	// output bits, so a misread one must never pass.
	{"256x512:4x4junk", nil},
	{"256x512:4x4:8x8", nil},
	{"256abcx512", nil},
	{"256x512abc", nil},
	{"256x512x4", nil},
	{" 256x512", nil},
	{"256x512:4x4 ", nil},
	{"256x1.5", nil},
	// Structure.
	{"256", nil},
	{"256x512:", nil},
	{"256x512:4", nil},
	{"256x512:x4", nil},
	{"256x512:4x", nil},
	{":", nil},
	// Values SetKernelConfig refuses.
	{"0x512", nil},
	{"256x-1", nil},
	{"256x512:3x3", nil},
	{"256x512:0x0", nil},
	{"99999999999999999999x512", nil},
}

func TestParseKernelConfig(t *testing.T) {
	prev, err := SetKernelConfig(DefaultKernelConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer SetKernelConfig(prev)
	for _, tc := range parseKernelConfigCases {
		got, err := ParseKernelConfig(tc.in)
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("ParseKernelConfig(%q) = %v, want an error", tc.in, got)
		case tc.want == nil && got != DefaultKernelConfig():
			t.Errorf("ParseKernelConfig(%q) failed with %v, want the current config back", tc.in, got)
		case tc.want != nil && err != nil:
			t.Errorf("ParseKernelConfig(%q): %v", tc.in, err)
		case tc.want != nil && got != *tc.want:
			t.Errorf("ParseKernelConfig(%q) = %v, want %v", tc.in, got, *tc.want)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "tensor: ") {
			t.Errorf("ParseKernelConfig(%q) error %q lacks the package prefix", tc.in, err)
		}
	}
}

// FuzzParseKernelConfig: no input panics, every accepted config is one
// SetKernelConfig installs, and its String form parses back to itself.
func FuzzParseKernelConfig(f *testing.F) {
	for _, tc := range parseKernelConfigCases {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseKernelConfig(s)
		if err != nil {
			return
		}
		prev, err := SetKernelConfig(c)
		if err != nil {
			t.Fatalf("ParseKernelConfig(%q) accepted %v, which SetKernelConfig refuses: %v", s, c, err)
		}
		SetKernelConfig(prev)
		back, err := ParseKernelConfig(c.String())
		if err != nil || back != c {
			t.Fatalf("ParseKernelConfig(%q) = %v; its String %q parses to %v, %v", s, c, c.String(), back, err)
		}
	})
}
