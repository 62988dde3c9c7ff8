package sim

import "testing"

func TestParseDuration(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Time
		ok   bool
	}{
		{"5ms", 5 * Millisecond, true},
		{"1.5us", 1500 * Nanosecond, true},
		{"2s", 2 * Second, true},
		{"0ms", 0, true},
		{"-5ms", 0, false},
		{"NaNms", 0, false},
		{"Infs", 0, false},
		{"1e300ms", 0, false},
		{"9223372s", 9223372 * Second, true}, // the range ends at 2^63 ps, ~9223372.04 s
		{"9223373s", 0, false},
		{"10", 0, false},
		{"ms", 0, false},
	} {
		got, err := ParseDuration(c.in)
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Errorf("ParseDuration(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestParseBytes(t *testing.T) {
	for _, c := range []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"32M", 32 << 20, true},
		{"4K", 4 << 10, true},
		{"4096", 4096, true},
		{"17179869183G", 17179869183 << 30, true},
		{"17179869184G", 0, false},
		{"18446744073709551616", 0, false},
		{"-5M", 0, false},
		{"M", 0, false},
		{"1.5G", 0, false},
	} {
		got, err := ParseBytes(c.in)
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}
