//! The sparse Markov model held to its contract without timing anything:
//! predictions exact against values recorded from the dense implementation
//! it replaced, a correct (not wrong, not panicking) dense worst case, a
//! support that stays sparse on a bidiagonal chain, and a steady-state
//! refresh that allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spectre_core::markov::{MarkovConfig, MarkovModel};

/// Counts this thread's allocations (libtest runs tests on parallel
/// threads, so a process-wide count would see the neighbours').
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates (const-initialized `Cell`, no destructor) nor
// touches the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `ptr`, `layout` and `new_size`, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The advance-or-stay transitions a Q1-like match produces: every state
/// `1..=states` is visited, a third of the visits advance.
fn bidiagonal(round: u32, len: u32, states: u32) -> Vec<(u32, u32)> {
    (0..len)
        .map(|i| {
            let from = 1 + (i * 5 + round) % states;
            (from, from - u32::from((i + round).is_multiple_of(3)))
        })
        .collect()
}

const GRID_DELTAS: [usize; 6] = [1, 2, 5, 8, 12, 20];
const GRID_HORIZONS: [i64; 9] = [1, 7, 10, 25, 60, 100, 159, 160, 1000];

/// The scripted history of the golden test; returns the prediction grid
/// taken at each of its five checkpoints.
fn scripted_history() -> Vec<f64> {
    const RHO: u32 = 32;
    let mut model = MarkovModel::new(
        20,
        MarkovConfig {
            rho: RHO as u64,
            state_cap: 12,
            max_levels: 16,
            ..Default::default()
        },
    );
    assert_eq!(model.state_count(), 13, "δ saturates at state_cap");
    let mut grid = Vec::new();
    let mut checkpoint = |model: &MarkovModel| {
        for delta in GRID_DELTAS {
            for n in GRID_HORIZONS {
                grid.push(model.completion_probability(delta, n));
            }
        }
    };

    // 1. A bidiagonal Q1-like chain, one ρ-window per refresh.
    for round in 0..40 {
        model.observe_batch(&bidiagonal(round, RHO, 12));
        assert!(model.refresh_if_due());
    }
    checkpoint(&model);

    // 2. Scattered jumps that fill rows, some beyond the state cap.
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut next = |modulus: u64| {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((lcg >> 33) % modulus) as u32
    };
    for _ in 0..6 {
        let jumps: Vec<(u32, u32)> = (0..RHO).map(|_| (next(21), next(21))).collect();
        model.observe_batch(&jumps);
        assert!(model.refresh_if_due());
    }
    checkpoint(&model);

    // 3. A 5ρ backlog in one batch: five smoothing steps, one rebuild.
    model.observe_batch(&bidiagonal(7, 5 * RHO, 12));
    assert!(model.refresh_if_due());
    assert_eq!(model.pending_observations(), 0);
    checkpoint(&model);

    // 4. A remainder carried across refreshes.
    model.observe_batch(&bidiagonal(3, RHO + 7, 9));
    assert!(model.refresh_if_due());
    assert_eq!(model.pending_observations(), 7);
    model.observe_batch(&bidiagonal(4, RHO - 7, 12));
    assert!(model.refresh_if_due());
    model.observe_batch(&bidiagonal(5, 20, 12));
    assert!(!model.refresh_if_due());
    checkpoint(&model);

    // 5. A changed distribution, long enough that the jump entries of
    //    phase 2 decay below the flush floor (0.3^80 ≈ 1e-42).
    for round in 0..80 {
        let changed: Vec<(u32, u32)> = (0..RHO)
            .map(|i| {
                let from = 1 + (i + round) % 12;
                (from, if from < 6 { from - 1 } else { from })
            })
            .collect();
        model.observe_batch(&changed);
        assert!(model.refresh_if_due());
    }
    checkpoint(&model);
    grid
}

/// `scripted_history()` as computed by the dense implementation this model
/// replaced (commit 014033a: `Matrix::power` + 127 dense `mul_col` sweeps),
/// `f64::to_bits` in hex, checkpoint-major then δ-major.
const GOLDEN: &str = "\
    3fb99994870d5f4c 3fe66661f62bb361 3feffff9a8d0b71e 3fefffffffff5f30 3fefffffffffffff \
    3fefffffffffffff 3fefffffffffffff 3fefffffffffffff 3fefffffffffffff 3fb6626bb9a6c39a \
    3fe3961e4271eb26 3febfb06a8107480 3fefcec906d63326 3feffffe9d9dc81f 3feffffffffa93e6 \
    3ff0000000000000 3ff0000000000000 3ff0000000000000 3f7cf183fbf34150 3fa953537c74d926 \
    3fb216f27d7808d2 3fe13a89f2baf0f4 3fee944ac837dcdc 3fefe6ff9d3f8ed5 3fefff81af6193cb \
    3fefff8cad13fcad 3fefff8cad13fcad 3f011e84b89ab54a 3f2df568430ebd40 3f356625e6c1629c \
    3fbf53c60cca60ce 3fe8081d92c0e459 3fef0722eb85b086 3feff7f7745b09b3 3feff8940d15270c \
    3feff8940d15270c 0000000000000000 0000000000000000 0000000000000000 3f62698757a0ea88 \
    3fcb2e15f9e581a7 3fe7282633a0991c 3fef37e87e9974d7 3fef42f2afb376e6 3fef42f2afb376e6 \
    0000000000000000 0000000000000000 0000000000000000 3f62698757a0ea88 3fcb2e15f9e581a7 \
    3fe7282633a0991c 3fef37e87e9974d7 3fef42f2afb376e6 3fef42f2afb376e6 3f6f1e06d78300c4 \
    3f9b3a45fc92a0aa 3fa372c446b1e07a 3fa25a1e6e81cfd2 3fa23b1e987115a1 3fa23b1c42b1672a \
    3fa23b1c429cb7e4 3fa23b1c429cb7e3 3fa23b1c429cb7e3 3f6a0f5e5b2a4e8f 3f96cd728fc504bc \
    3fa0499af8fa7119 3fa220563ec473e2 3fa23b1aacf692fc 3fa23b1c428eb6f0 3fa23b1c429cb7df \
    3fa23b1c429cb7e0 3fa23b1c429cb7e0 3f6a4d490e30fb8d 3f97039fec6adc1b 3fa0704da8de9d38 \
    3fa21ec98c78a92a 3fa23b1a72b7326e 3fa23b1c428cafbb 3fa23b1c429cb7df 3fa23b1c429cb7e0 \
    3fa23b1c429cb7e0 3f6a2d045b3e6032 3f96e763cfd6942b 3fa05c22b906fc1f 3fa21f1a6565cbc0 \
    3fa23b1a8297bdb3 3fa23b1c428d3cb8 3fa23b1c429cb7df 3fa23b1c429cb7e0 3fa23b1c429cb7e0 \
    3f6e049e47114174 3f9a440a7e2f1944 3fa2c2e2ec6ac8e8 3fa241b9f51ba4d2 3fa23b1ca44bc79c \
    3fa23b1c42a0173e 3fa23b1c429cb7e3 3fa23b1c429cb7e2 3fa23b1c429cb7e2 3f6e049e47114174 \
    3f9a440a7e2f1944 3fa2c2e2ec6ac8e8 3fa241b9f51ba4d2 3fa23b1ca44bc79c 3fa23b1c42a0173e \
    3fa23b1c429cb7e3 3fa23b1c429cb7e2 3fa23b1c429cb7e2 3ec4a2d100183130 3ef20e76e0152b0a \
    3ef9cb85401e3d7c 3f1d8cd6ed34a1c6 3f40f8560e1a3323 3f556ede37008f37 3f68ac4a2d8cb03b \
    3f68f19b80a30e9b 3f68f19b80a30e9b 3eab2465b367907a 3ed7bfd8fcfa9e6a 3ee0f6bf9020ba4c \
    3f104abc8ea60657 3f3717667f83ff87 3f4f331bb19d35b5 3f62a333885ff65b 3f62d954a478d4e8 \
    3f62d954a478d4e8 3ef88677a9de42d0 3f2575a8b4a27a75 3f2ea8159455d383 3f43f91189a5360a \
    3f59ef7f524519ae 3f675ed32b6e1a10 3f74656e34908144 3f748d42bd5549a5 3f748d42bd5549a5 \
    3ec2c5d7dec6f8ad 3ef06d1ce2ee1997 3ef7774dd678b6d8 3f10cbf5f9b9d49a 3f29ebb49c97d058 \
    3f3bac83d05bb708 3f4d9db179120784 3f4ded863a72a098 3f4ded863a72a098 3f40b5fb4e1d601a \
    3f6d3e77c8b3682c 3f74e37a21a4b820 3f8af1661c469166 3f9f59e64f1d8e57 3fa8c01b26f67573 \
    3fb219bb24cda300 3fb2309af2114fe6 3fb2309af2114fe6 3f40b5fb4e1d601a 3f6d3e77c8b3682c \
    3f74e37a21a4b820 3f8af1661c469166 3f9f59e64f1d8e57 3fa8c01b26f67573 3fb219bb24cda300 \
    3fb2309af2114fe6 3fb2309af2114fe6 3fb9611645b9768d 3fe634f37d0247bb 3fefb95bd727d430 \
    3fefd4346643e8c4 3fef966380709fce 3fef503dbc90c74d 3feeea1d0fd20a3f 3feee864e38d9302 \
    3feee864e38d9302 3e6163d64c8bbc0b 3e8e6eb705f48913 3e95bccbdfaeab0e 3eb5abdf81d757f2 \
    3ed502f07b3ff75e 3ee8ea5b091521f6 3efc4f902f0aaded 3efc9fda106cffab 3efc9fda106cffab \
    3ec15d342eb1fd2b 3eee631b51b77b0a 3ef5b4813a5e7c75 3f0b3d76b43ef067 3f207bbd0e029049 \
    3f2bbe43edc790fb 3f365eb1760ae1bd 3f3683fe6f417b8f 3f3683fe6f417b8f 3e8977e3c6b63364 \
    3eb648e74ddf6cf7 3ebfd5dcb863c03d 3ed44675f243816d 3ee913cdf5ae8844 3ef5995116a2e25b \
    3f01feb302820014 3f021f1335fe4fd4 3f021f1335fe4fd4 3f07e129753b41c0 3f34e5044693d987 \
    3f3dd973d28a122f 3f53efb4ea202250 3f6869585ee21fdc 3f745c5dbd3cff09 3f8019de5573f2cf \
    3f803359f2b75d09 3f803359f2b75d09 3f07e129753b41c0 3f34e5044693d987 3f3dd973d28a122f \
    3f53efb4ea202250 3f6869585ee21fdc 3f745c5dbd3cff09 3f8019de5573f2cf 3f803359f2b75d09 \
    3f803359f2b75d09 3fb999999999999a 3fe6666666666666 3ff0000000000000 3ff0000000000000 \
    3ff0000000000000 3ff0000000000000 3ff0000000000000 3ff0000000000000 3ff0000000000000 \
    3fb999999999999a 3fe6666666666666 3ff0000000000000 3ff0000000000000 3ff0000000000000 \
    3ff0000000000000 3ff0000000000000 3ff0000000000000 3ff0000000000000 3fb999999999999a \
    3fe6666666666666 3ff0000000000000 3ff0000000000000 3ff0000000000000 3ff0000000000000 \
    3ff0000000000000 3ff0000000000000 3ff0000000000000 3667b6ecb2972778 3694c00f1c444288 \
    369da4a7df3cf155 36bcd1420f8b8904 36d3b1093c660efd 36e0fb3750c7210e 36eb81987e94c6c3 \
    36ebaf435ca54766 36ebaf435ca54766 364c008963bea568 367880783746d0bb 36818055de572761 \
    369b201a7a683f76 36b17ffd05281ebb 36bdbff20ca5e693 36c7e8bdbbd95046 36c80ff0cbf1492c \
    36c80ff0cbf1492c 364c008963bea568 367880783746d0bb 36818055de572761 369b201a7a683f76 \
    36b17ffd05281ebb 36bdbff20ca5e693 36c7e8bdbbd95046 36c80ff0cbf1492c 36c80ff0cbf1492c";

#[test]
fn predictions_equal_the_dense_parent_to_one_ulp() {
    let golden: Vec<f64> = GOLDEN
        .split_whitespace()
        .map(|hex| f64::from_bits(u64::from_str_radix(hex, 16).expect("hex word")))
        .collect();
    let got = scripted_history();
    assert_eq!(got.len(), golden.len());
    let per_checkpoint = GRID_DELTAS.len() * GRID_HORIZONS.len();
    for (i, (&g, &want)) in got.iter().zip(&golden).enumerate() {
        // The absolute floor is the room the subnormal flush needs: the
        // parent carried decayed entries (1e-42 and below) the new model
        // drops, and nothing else.
        let ulps = g.to_bits().abs_diff(want.to_bits());
        assert!(
            ulps <= 1 || (g - want).abs() <= 1e-24,
            "checkpoint {} delta {} n {}: {g:e} vs {want:e} ({ulps} ulp)",
            i / per_checkpoint,
            GRID_DELTAS[i % per_checkpoint / GRID_HORIZONS.len()],
            GRID_HORIZONS[i % GRID_HORIZONS.len()],
        );
    }
    // Up to the changed distribution no entry is near the floor, and there
    // the two are the same bits, not merely within an ulp.
    let exact = 4 * per_checkpoint;
    assert!(got[..exact]
        .iter()
        .zip(&golden)
        .all(|(g, want)| g.to_bits() == want.to_bits()));
}

#[test]
fn bidiagonal_chain_stays_sparse_and_refreshes_without_allocating() {
    // The live shape: Q1 at q ≥ state_cap, default ρ, advance or stay.
    let config = MarkovConfig::default();
    let (rho, ell) = (config.rho as u32, config.ell as usize);
    let mut model = MarkovModel::new(130, config);
    let states = model.state_count();
    let batches: Vec<Vec<(u32, u32)>> = (0..3)
        .map(|round| bidiagonal(round, rho, states as u32 - 1))
        .collect();
    let cycle = |model: &mut MarkovModel, round: usize| {
        model.observe_batch(&batches[round % batches.len()]);
        assert!(model.refresh_if_due());
        // What the scheduler reads: a window of 200 events, ℓ = 10.
        (1..states).fold(0.0, |sum, delta| {
            sum + model.completion_probability(delta, 200)
        })
    };
    for round in 0..200 {
        cycle(&mut model, round);
    }

    // A silent fall back to dense rows shows as a count, not as a timing:
    // two entries per row in T1, at most ℓ + 1 per row in T^ℓ.
    assert!(model.t1().is_row_stochastic(1e-12));
    assert!(model.t1().nnz() <= 3 * states, "{}", model.t1().nnz());
    assert!(
        model.t_ell_nnz() <= (ell + 1) * states,
        "{}",
        model.t_ell_nnz()
    );

    let before = allocations();
    drop(std::hint::black_box(vec![0u8; 64]));
    assert_eq!(
        allocations() - before,
        1,
        "the counter sees this thread's allocations"
    );
    let before = allocations();
    let mut sum = 0.0;
    for round in 200..220 {
        sum += cycle(&mut model, round);
    }
    assert_eq!(allocations() - before, 0, "steady-state refreshes allocate");
    assert!(sum > 0.0);
}
