//! Integration of the directive compiler (§VI) with the LP runtime: the
//! checksum semantics a compiled pragma describes must be exactly what the
//! runtime computes.

use lpgpu::gpu_lp::checksum::ChecksumSet;
use lpgpu::gpu_lp::{LpConfig, ResilientRecovery};
use lpgpu::lp_directive::{compile, ChecksumOp};
use lpgpu::lp_kernels::{stage, workload_by_name, world, Scale};
use lpgpu::simt::{CrashPlan, DeviceConfig};

const TMM_SOURCE: &str = r#"
void host(dim3 grid, dim3 threads) {
#pragma nvm lpcuda_init(checksumMM, grid.x*grid.y, 2)
    MatrixMulCUDA<<<grid, threads>>>(d_C, d_A, d_B, dimsA.x, dimsB.x);
}

__global__ void MatrixMulCUDA(float *C, float *A, float *B, int wA, int wB) {
    int bx = blockIdx.x;
    int by = blockIdx.y;
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    float Csub = 0;
    int c = wB * BLOCK_SIZE * by + BLOCK_SIZE * bx;
#pragma nvm lpcuda_checksum(+^, checksumMM, blockIdx.x, blockIdx.y)
    C[c + wB * ty + tx] = Csub;
}
"#;

/// Maps the compiled plan's checksum operators onto a runtime set.
fn set_from_plan(ops: &[ChecksumOp]) -> ChecksumSet {
    ChecksumSet::new(ops.iter().map(|o| o.to_kind()).collect())
}

#[test]
fn compiled_plan_drives_the_runtime() {
    let compiled = compile(TMM_SOURCE).unwrap();
    let plan = &compiled.plans[0];
    assert_eq!(plan.kernel, "MatrixMulCUDA");

    // The "+^" directive selects modular+parity — the paper's recommended
    // simultaneous pair — and it must behave identically to the runtime's
    // built-in set.
    let set = set_from_plan(&plan.ops);
    assert_eq!(set, ChecksumSet::modular_parity());

    // Drive the actual TMM workload with the directive-derived config and
    // complete a crash/recovery cycle.
    let (gpu, mut mem) = world(DeviceConfig::test_gpu(), 256, 8);
    let mut w = workload_by_name("TMM", Scale::Test, 99).unwrap();
    let config = LpConfig::recommended().with_checksums(set);
    let rt = stage(w.as_mut(), &gpu, &mut mem, &config);
    let kernel = w.kernel(Some(&rt));
    gpu.launch_with_plan(kernel.as_ref(), &mut mem, CrashPlan::after_stores(400))
        .unwrap();
    let report = ResilientRecovery::new(&gpu).recover(kernel.as_ref(), &rt, &mut mem);
    assert!(report.all_durable);
    assert!(w.verify(&mut mem));
}

#[test]
fn generated_recovery_kernel_covers_the_address_slice() {
    let compiled = compile(TMM_SOURCE).unwrap();
    let rk = &compiled.recovery_kernels[0];
    // Listing 7's shape: every variable the protected address needs is
    // recomputed before validation.
    for needed in ["int bx", "int by", "int tx", "int ty", "int c ="] {
        assert!(
            rk.source.contains(needed),
            "recovery kernel missing slice statement {needed:?}:\n{}",
            rk.source
        );
    }
    // The value expression must NOT be in the slice (it is recomputed by
    // the recovery function, not the validator).
    assert!(!rk.source.contains("float Csub"));
    assert!(rk
        .source
        .contains("lpcuda_validate(C[c + wB * ty + tx], checksumMM, blockIdx.x, blockIdx.y)"));
}

#[test]
fn init_pragma_matches_kernel_grid_semantics() {
    let compiled = compile(TMM_SOURCE).unwrap();
    let init = &compiled.init_plans[0];
    assert_eq!(init.table, "checksumMM");
    assert_eq!(init.nelems, "grid.x*grid.y"); // one entry per thread block
    assert_eq!(init.selem, "2"); // two simultaneous checksums
}

#[test]
fn single_op_directive_maps_to_single_checksum() {
    let src = r#"
__global__ void k(float *o) {
    int i = blockIdx.x;
#pragma nvm lpcuda_checksum(+, tab, blockIdx.x)
    o[i] = 1.0f;
}
"#;
    let compiled = compile(src).unwrap();
    let set = set_from_plan(&compiled.plans[0].ops);
    assert_eq!(set, ChecksumSet::modular_only());
    assert!(
        set.is_associative(),
        "must be eligible for shuffle reduction"
    );
}
