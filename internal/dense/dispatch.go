package dense

// Kernel dispatch table. Every Vec* entry point (and the Syrk row block)
// calls through one of these function pointers; they default to the
// pure-Go bodies and are repointed at the assembly fast paths by the
// build-tagged init in simd_amd64.go / simd_arm64.go when internal/cpu
// reports the features (AVX2+FMA on amd64, NEON on arm64). The `purego`
// build tag compiles those inits out, and SPLATT_DISABLE_SIMD makes the
// detection report nothing, so both leave this table on the generic
// bodies — zero call-site changes either way.
var (
	vecAxpy     = vecAxpyGeneric
	vecAdd      = vecAddGeneric
	vecMul      = vecMulGeneric
	vecMulAdd   = vecMulAddGeneric
	vecMulSet   = vecMulSetGeneric
	vecScaleSet = vecScaleSetGeneric
	vecDot      = vecDotGeneric
	syrkRow     = syrkRowGeneric

	vecAxpyMulSet  = vecAxpyMulSetCompose
	vecScaleMulSet = vecScaleMulSetCompose
	vecMulAxpy     = vecMulAxpyGeneric
	vecMulScaleSet = vecMulScaleSetGeneric
	gatherAxpy     = gatherAxpyCompose

	kernelISA = "generic"
)

// KernelISA reports which kernel set is live: "avx2+fma", "neon", or
// "generic". Logged at startup by the CLIs and exported as the
// splatt_cpu_features gauge so perf artifacts record which path ran.
func KernelISA() string { return kernelISA }

// Native reports whether the assembly kernel set is live.
func Native() bool { return kernelISA != "generic" }
