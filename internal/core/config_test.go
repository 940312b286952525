package core

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzConfigText: UnmarshalText accepts exactly the names MarshalText
// writes. Any input either fails, leaving the value untouched, or decodes
// to a listed configuration whose text is the input itself.
func FuzzConfigText(f *testing.F) {
	for _, c := range Configs {
		text, err := c.MarshalText()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	f.Add([]byte("mbs2"))
	f.Add([]byte("Config(99)"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, text []byte) {
		c := Config(-1)
		if err := c.UnmarshalText(text); err != nil {
			if c != Config(-1) {
				t.Fatalf("failed decode of %q changed the value to %v", text, c)
			}
			return
		}
		listed := slices.Contains(Configs, c)
		out, err := c.MarshalText()
		if !listed || err != nil || !bytes.Equal(out, text) {
			t.Fatalf("%q decoded to %v (listed %v), which encodes to %q (%v)", text, c, listed, out, err)
		}
	})
}
