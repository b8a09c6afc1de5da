package apps

import "math"

// Reference implementations in plain Go, mirroring the DSL kernels
// statement for statement (including floating-point evaluation order) so
// differential tests can require exact agreement across
// JVM-sim -> generated-C -> transformed-C executions.

// aesSbox is the AES forward S-box.
var aesSbox = [256]byte{
	0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
	0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
	0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
	0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
	0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
	0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
	0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
	0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
	0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
	0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
	0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
	0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
	0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
	0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
	0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
	0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
}

// ExpandAESKey performs AES-128 key expansion, returning the 176
// round-key bytes (11 round keys of 16 bytes each).
func ExpandAESKey(key []byte) []byte {
	rcon := [10]byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36}
	out := make([]byte, 176)
	copy(out, key)
	for i := 16; i < 176; i += 4 {
		var t [4]byte
		copy(t[:], out[i-4:i])
		if i%16 == 0 {
			// RotWord + SubWord + Rcon.
			t[0], t[1], t[2], t[3] = aesSbox[t[1]], aesSbox[t[2]], aesSbox[t[3]], aesSbox[t[0]]
			t[0] ^= rcon[i/16-1]
		}
		for j := 0; j < 4; j++ {
			out[i+j] = out[i-16+j] ^ t[j]
		}
	}
	return out
}

// SWRef mirrors the Smith-Waterman kernel on one pair.
// api:allow Go oracle: the workload tests hold the kernel to it on every input
func SWRef(a, b []byte) (out1, out2 []byte) {
	const m = 129
	H := make([]int32, m*m)
	D := make([]int32, m*m)
	var maxV, maxI, maxJ int32
	for i := int32(1); i < m; i++ {
		for j := int32(1); j < m; j++ {
			sc := int32(-1)
			if a[i-1] == b[j-1] {
				sc = 2
			}
			dg := H[(i-1)*m+(j-1)] + sc
			up := H[(i-1)*m+j] - 1
			lf := H[i*m+(j-1)] - 1
			v, d := int32(0), int32(0)
			if dg > v {
				v, d = dg, 1
			}
			if up > v {
				v, d = up, 2
			}
			if lf > v {
				v, d = lf, 3
			}
			H[i*m+j] = v
			D[i*m+j] = d
			if v > maxV {
				maxV, maxI, maxJ = v, i, j
			}
		}
	}
	out1 = make([]byte, SWOut)
	out2 = make([]byte, SWOut)
	ti, tj := maxI, maxJ
	p := int32(SWOut - 1)
	for ti > 0 && tj > 0 && D[ti*m+tj] != 0 && p >= 0 {
		switch D[ti*m+tj] {
		case 1:
			out1[p] = a[ti-1]
			out2[p] = b[tj-1]
			ti--
			tj--
		case 2:
			out1[p] = a[ti-1]
			out2[p] = '-'
			ti--
		default:
			out1[p] = '-'
			out2[p] = b[tj-1]
			tj--
		}
		p--
	}
	return out1, out2
}

// KMeansRef mirrors the KMeans assignment kernel.
// api:allow Go oracle: the workload tests hold the kernel to it on every input
func KMeansRef(point []float64) int {
	best := 0
	bestDist := 1.0e30
	for k := 0; k < KMeansK; k++ {
		dist := 0.0
		for j := 0; j < KMeansD; j++ {
			t := point[j] - KMeansCenters[k*KMeansD+j]
			dist = dist + t*t
		}
		if dist < bestDist {
			bestDist = dist
			best = k
		}
	}
	return best
}

// KNNRef mirrors the 3-NN vote kernel.
// api:allow Go oracle: the workload tests hold the kernel to it on every input
func KNNRef(q []float64) int {
	d1, d2, d3 := 1.0e30, 1.0e30, 1.0e30
	var l1, l2, l3 int
	for t := 0; t < KNNTrain; t++ {
		dist := 0.0
		for j := 0; j < KNND; j++ {
			df := q[j] - KNNPoints[t*KNND+j]
			dist = dist + df*df
		}
		switch {
		case dist < d1:
			d3, l3 = d2, l2
			d2, l2 = d1, l1
			d1, l1 = dist, KNNLabels[t]
		case dist < d2:
			d3, l3 = d2, l2
			d2, l2 = dist, KNNLabels[t]
		case dist < d3:
			d3, l3 = dist, KNNLabels[t]
		}
	}
	vote := l1
	if l2 == l3 && l2 != l1 {
		vote = l2
	}
	return vote
}

// LRRef mirrors the logistic-regression gradient kernel.
// api:allow Go oracle: the workload tests hold the kernel to it on every input
func LRRef(x []float64, y float64) []float64 {
	dot := 0.0
	for j := 0; j < RegD; j++ {
		dot = dot + RegWeights[j]*x[j]
	}
	s := 1.0 / (1.0 + math.Exp(-dot))
	coef := s - y
	g := make([]float64, RegD)
	for j := 0; j < RegD; j++ {
		g[j] = coef * x[j]
	}
	return g
}

// SVMRef mirrors the hinge-gradient kernel.
// api:allow Go oracle: the workload tests hold the kernel to it on every input
func SVMRef(x []float64, y float64) []float64 {
	dot := 0.0
	for j := 0; j < RegD; j++ {
		dot = dot + RegWeights[j]*x[j]
	}
	margin := y * dot
	g := make([]float64, RegD)
	if margin < 1.0 {
		for j := 0; j < RegD; j++ {
			g[j] = 0.01*RegWeights[j] - y*x[j]
		}
	} else {
		for j := 0; j < RegD; j++ {
			g[j] = 0.01 * RegWeights[j]
		}
	}
	return g
}

// LLSRef mirrors the least-squares gradient kernel.
// api:allow Go oracle: the workload tests hold the kernel to it on every input
func LLSRef(x []float64, y float64) []float64 {
	dot := 0.0
	for j := 0; j < RegD; j++ {
		dot = dot + RegWeights[j]*x[j]
	}
	coef := dot - y
	g := make([]float64, RegD)
	for j := 0; j < RegD; j++ {
		g[j] = coef * x[j]
	}
	return g
}

// PRRef mirrors the PageRank update kernel.
// api:allow Go oracle: the workload tests hold the kernel to it on every input
func PRRef(ranks []float64, degs []int32) float64 {
	s := 0.0
	for e := 0; e < PRDeg; e++ {
		if degs[e] > 0 {
			s = s + ranks[e]/float64(degs[e])
		}
	}
	return 0.15 + 0.85*s
}

// AESRef mirrors the table-based AES-128 ECB block encryption (validated
// against crypto/aes in the test suite).
// api:allow Go oracle: the workload tests hold the kernel to it on every input
func AESRef(block []byte) []byte {
	rk := ExpandAESKey(AESKey)
	shift := [16]int{0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11}
	var st [16]int
	for i := 0; i < 16; i++ {
		st[i] = int(block[i]) ^ int(rk[i])
	}
	for r := 1; r < 10; r++ {
		var sb, sh [16]int
		for i := 0; i < 16; i++ {
			sb[i] = int(aesSbox[st[i]])
		}
		for i := 0; i < 16; i++ {
			sh[i] = sb[shift[i]]
		}
		for c := 0; c < 4; c++ {
			a0, a1, a2, a3 := sh[c*4], sh[c*4+1], sh[c*4+2], sh[c*4+3]
			b0 := ((a0 << 1) ^ (((a0 >> 7) & 1) * 27)) & 255
			b1 := ((a1 << 1) ^ (((a1 >> 7) & 1) * 27)) & 255
			b2 := ((a2 << 1) ^ (((a2 >> 7) & 1) * 27)) & 255
			b3 := ((a3 << 1) ^ (((a3 >> 7) & 1) * 27)) & 255
			st[c*4] = b0 ^ (b1 ^ a1) ^ a2 ^ a3
			st[c*4+1] = a0 ^ b1 ^ (b2 ^ a2) ^ a3
			st[c*4+2] = a0 ^ a1 ^ b2 ^ (b3 ^ a3)
			st[c*4+3] = (b0 ^ a0) ^ a1 ^ a2 ^ b3
		}
		for i := 0; i < 16; i++ {
			st[i] ^= int(rk[r*16+i])
		}
	}
	var fs [16]int
	for i := 0; i < 16; i++ {
		fs[i] = int(aesSbox[st[i]])
	}
	out := make([]byte, 16)
	for i := 0; i < 16; i++ {
		out[i] = byte(fs[shift[i]] ^ int(rk[160+i]))
	}
	return out
}
