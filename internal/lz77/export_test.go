package lz77

import "fmt"

// Expand reconstructs the original bytes from a token stream, appending to
// dst: the tests' statement of what a token stream means, which the
// DEFLATE decoder's copy loop implements on its own.
func Expand(dst []byte, tokens []Token) ([]byte, error) {
	for _, t := range tokens {
		if t.IsLiteral() {
			dst = append(dst, t.Lit)
			continue
		}
		d := int(t.Dist)
		if d <= 0 || d > len(dst) {
			return nil, fmt.Errorf("lz77: invalid distance %d at output size %d", d, len(dst))
		}
		for k := 0; k < int(t.Len); k++ {
			dst = append(dst, dst[len(dst)-d])
		}
	}
	return dst, nil
}
