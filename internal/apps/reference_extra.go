package apps

// Go references for the four extended workloads, mirroring the DSL
// kernels statement for statement (including floating-point evaluation
// order), like reference.go does for the Table 2 eight.

// ConvRef mirrors the Conv kernel on one image.
// api:allow Go oracle: the workload tests hold the kernel to it on every input
func ConvRef(img []float64) []float64 {
	out := make([]float64, ConvOut*ConvOut)
	for r := 0; r < ConvOut; r++ {
		for c := 0; c < ConvOut; c++ {
			acc := 0.0
			for kr := 0; kr < ConvK; kr++ {
				for kc := 0; kc < ConvK; kc++ {
					acc = acc + img[(r+kr)*ConvN+(c+kc)]*ConvFilter[kr*ConvK+kc]
				}
			}
			out[r*ConvOut+c] = acc
		}
	}
	return out
}

// HistRef mirrors the Hist kernel on one sample batch.
// api:allow Go oracle: the workload tests hold the kernel to it on every input
func HistRef(xs []int32) []int32 {
	bins := make([]int32, HistB)
	for _, x := range xs {
		// Two's-complement & matches the JVM Int mask for negatives.
		bins[uint32(x)&(HistB-1)]++
	}
	return bins
}

// TopKRef mirrors the TopK kernel on one value batch.
// api:allow Go oracle: the workload tests hold the kernel to it on every input
func TopKRef(xs []float64) []float64 {
	best := make([]float64, TKK)
	for j := range best {
		best[j] = -1.0e30
	}
	for _, v := range xs {
		x := v
		for j := 0; j < TKK; j++ {
			if x > best[j] {
				best[j], x = x, best[j]
			}
		}
	}
	return best
}

// StrSearchRef mirrors the StrSearch kernel on one text.
// api:allow Go oracle: the workload tests hold the kernel to it on every input
func StrSearchRef(text []byte) int {
	count := 0
	for i := 0; i < SSN-SSM+1; i++ {
		ok := 1
		for j := 0; j < SSM; j++ {
			if int(text[i+j]) != SSPattern[j] {
				ok = 0
			}
		}
		count += ok
	}
	return count
}
