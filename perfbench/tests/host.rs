//! The reference kernel must do the same work on every call, or it would
//! measure its inputs instead of the host.

use croesus_perfbench::host::reference_kernel;

#[test]
fn reference_kernel_is_deterministic() {
    assert_eq!(reference_kernel(), reference_kernel());
}
