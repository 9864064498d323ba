package tensor

import (
	"fmt"
	"strconv"
	"strings"
)

// Shape is a tensor shape, outermost dimension first. Convolutional
// tensors use NCHW layout; convolution weights use (Cout, CinPerGroup,
// KH, KW); matmul operands use (..., M, K) x (..., K, N).
type Shape []int

// Volume returns the number of elements.
func (s Shape) Volume() int {
	v := 1
	for _, d := range s {
		v *= d
	}
	return v
}

// maxVolume bounds every tensor's element count. Costs are float64 and
// scale with volume: beyond 2^53 elements neither they nor the int
// products behind them stay exact, and an overflowed volume would price
// a graph below zero.
const maxVolume = 1 << 53

// bounded reports whether every dimension is positive and the volume
// at most maxVolume, without overflowing on the way.
func (s Shape) bounded() bool {
	v := 1
	for _, d := range s {
		if d < 1 || v > maxVolume/d {
			return false
		}
		v *= d
	}
	return true
}

// Clone returns a copy of s.
func (s Shape) Clone() Shape { return append(Shape(nil), s...) }

// Equal reports element-wise equality.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// String renders the shape in the Table 2 footnote format: "d1 d2 ...".
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, " ")
}

// ParseShape parses "d1 d2 ..." (the format used in reshape payloads
// and input/weight identifiers). It refuses a shape of more than
// maxVolume elements.
func ParseShape(s string) (Shape, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil, fmt.Errorf("tensor: empty shape string")
	}
	out := make(Shape, len(fields))
	for i, f := range fields {
		d, err := strconv.Atoi(f)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("tensor: bad dimension %q in shape %q", f, s)
		}
		out[i] = d
	}
	if !out.bounded() {
		return nil, fmt.Errorf("tensor: shape %q exceeds %d elements", s, maxVolume)
	}
	return out, nil
}

// ParsePerm parses an axis permutation "a1 a2 ..." and validates it is
// a permutation of 0..n-1.
func ParsePerm(s string) ([]int, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil, fmt.Errorf("tensor: empty permutation string")
	}
	perm := make([]int, len(fields))
	seen := make([]bool, len(fields))
	for i, f := range fields {
		a, err := strconv.Atoi(f)
		if err != nil || a < 0 || a >= len(fields) || seen[a] {
			return nil, fmt.Errorf("tensor: bad permutation %q", s)
		}
		perm[i] = a
		seen[a] = true
	}
	return perm, nil
}

// PermString renders a permutation in the payload format.
func PermString(perm []int) string {
	parts := make([]string, len(perm))
	for i, a := range perm {
		parts[i] = strconv.Itoa(a)
	}
	return strings.Join(parts, " ")
}

// ParseIdent parses an input/weight identifier "name@d1 d2 ..." into
// its name and shape.
func ParseIdent(s string) (name string, shape Shape, err error) {
	at := strings.IndexByte(s, '@')
	if at <= 0 {
		return "", nil, fmt.Errorf("tensor: identifier %q missing name@shape separator", s)
	}
	shape, err = ParseShape(s[at+1:])
	if err != nil {
		return "", nil, err
	}
	return s[:at], shape, nil
}

// Ident builds an identifier payload from a name and shape.
func Ident(name string, shape Shape) string {
	return name + "@" + shape.String()
}
