package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseDuration parses a non-negative simulated duration with an s, ms or
// us unit suffix, e.g. "10ms" or "1.5us". Negative, NaN, infinite and
// out-of-range values are rejected rather than wrapped.
func ParseDuration(s string) (Time, error) {
	var unit Time
	num, ok := "", false
	for _, u := range []struct {
		suffix string
		unit   Time
	}{{"ms", Millisecond}, {"us", Microsecond}, {"s", Second}} {
		if num, ok = strings.CutSuffix(s, u.suffix); ok {
			unit = u.unit
			break
		}
	}
	if !ok {
		return 0, fmt.Errorf("duration needs a unit (s/ms/us): %q", s)
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("duration %q: %w", s, err)
	}
	ps := v * float64(unit)
	// float64(math.MaxInt64) rounds up to 2^63, so the strict bound keeps
	// the conversion exact; the comparison also rejects NaN.
	if !(ps >= 0 && ps < float64(math.MaxInt64)) {
		return 0, fmt.Errorf("duration %q out of range [0, %v]", s, Time(math.MaxInt64))
	}
	return Time(ps), nil
}

// ParseBytes parses a byte count with an optional binary K, M or G suffix,
// e.g. "32M". Counts that do not fit in 64 bits are rejected rather than
// wrapped.
func ParseBytes(s string) (uint64, error) {
	shift := 0
	num := s
	for _, u := range []struct {
		suffix string
		shift  int
	}{{"G", 30}, {"M", 20}, {"K", 10}} {
		if n, ok := strings.CutSuffix(s, u.suffix); ok {
			num, shift = n, u.shift
			break
		}
	}
	v, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("byte count %q: %w", s, err)
	}
	if v > math.MaxUint64>>shift {
		return 0, fmt.Errorf("byte count %q overflows 64 bits", s)
	}
	return v << shift, nil
}
