//! Fused-op vs composed-op equivalence suite.
//!
//! The fused tape ops (`affine`, `log_softmax_pick`, `add_n`) exist purely for
//! speed; their contract is *bitwise* agreement with the composed op chains
//! they replace — forward values AND parameter gradients. Each test builds the
//! same computation twice (fused and composed), backpropagates both, and
//! compares every float by its bit pattern.

use eagle_tensor::{init, FusedAct, Grads, ParamId, Params, Tape, Tensor, Var};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn seeded_params(shapes: &[(usize, usize)], seed: u64) -> (Params, Vec<ParamId>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut params = Params::new();
    let ids = shapes
        .iter()
        .enumerate()
        .map(|(i, &(r, c))| params.add(format!("p{i}"), init::xavier_uniform(r, c, &mut rng)))
        .collect();
    (params, ids)
}

/// Runs `forward` twice against fresh gradient buffers and demands bitwise
/// agreement of the loss value and of every parameter gradient.
fn assert_bitwise_equivalent(
    params: &Params,
    fused: impl Fn(&mut Tape, &Params) -> Var,
    composed: impl Fn(&mut Tape, &Params) -> Var,
    ctx: &str,
) {
    let run = |forward: &dyn Fn(&mut Tape, &Params) -> Var| -> (f32, Grads) {
        let mut tape = Tape::new();
        let loss = forward(&mut tape, params);
        let mut grads = Grads::for_params(params);
        tape.backward_into(loss, &mut grads);
        (tape.value(loss).item(), grads)
    };
    let (loss_f, grads_f) = run(&fused);
    let (loss_c, grads_c) = run(&composed);
    assert_eq!(loss_f.to_bits(), loss_c.to_bits(), "{ctx}: loss {loss_f} vs {loss_c}");
    for id in params.ids() {
        for (j, (a, b)) in grads_f.get(id).data().iter().zip(grads_c.get(id).data()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{ctx}: grad {}[{j}] fused {a} vs composed {b}",
                params.name(id)
            );
        }
    }
}

fn apply_act(tape: &mut Tape, z: Var, act: FusedAct) -> Var {
    match act {
        FusedAct::None => z,
        FusedAct::Tanh => tape.tanh(z),
        FusedAct::Relu => tape.relu(z),
    }
}

#[test]
fn affine_matches_composed_for_every_activation() {
    for (seed, act) in [(1, FusedAct::None), (2, FusedAct::Tanh), (3, FusedAct::Relu)] {
        // x: (5,4), w: (4,3), b: (1,3) — all gradient targets.
        let (params, ids) = seeded_params(&[(5, 4), (4, 3), (1, 3)], seed);
        let ctx = format!("affine/{act:?}");
        assert_bitwise_equivalent(
            &params,
            |tape, p| {
                let x = tape.param(p, ids[0]);
                let w = tape.param(p, ids[1]);
                let b = tape.param(p, ids[2]);
                let y = tape.affine(x, w, b, act);
                tape.sum_all(y)
            },
            |tape, p| {
                let x = tape.param(p, ids[0]);
                let w = tape.param(p, ids[1]);
                let b = tape.param(p, ids[2]);
                let z = tape.matmul(x, w);
                let z = tape.add_row_broadcast(z, b);
                let y = apply_act(tape, z, act);
                tape.sum_all(y)
            },
            &ctx,
        );
    }
}

#[test]
fn affine_with_constant_input_only_trains_weights() {
    let (params, ids) = seeded_params(&[(4, 6), (1, 6)], 7);
    let x_const = init::xavier_uniform(3, 4, &mut ChaCha8Rng::seed_from_u64(99));
    assert_bitwise_equivalent(
        &params,
        |tape, p| {
            let x = tape.leaf(x_const.clone());
            let w = tape.param(p, ids[0]);
            let b = tape.param(p, ids[1]);
            let y = tape.affine(x, w, b, FusedAct::Tanh);
            tape.mean_all(y)
        },
        |tape, p| {
            let x = tape.leaf(x_const.clone());
            let w = tape.param(p, ids[0]);
            let b = tape.param(p, ids[1]);
            let z = tape.matmul(x, w);
            let z = tape.add_row_broadcast(z, b);
            let y = tape.tanh(z);
            tape.mean_all(y)
        },
        "affine/leaf-input",
    );
}

#[test]
fn log_softmax_pick_matches_composed_pair() {
    // Weighted picked log-probs: exercises non-uniform incoming gradients.
    let (params, ids) = seeded_params(&[(6, 5)], 11);
    let picks = [0usize, 4, 2, 2, 1, 3];
    let weights = Tensor::from_vec(6, 1, vec![1.0, -0.5, 2.0, 0.25, -3.0, 0.125]);
    assert_bitwise_equivalent(
        &params,
        |tape, p| {
            let logits = tape.param(p, ids[0]);
            let picked = tape.log_softmax_pick(logits, &picks);
            let w = tape.leaf(weights.clone());
            let weighted = tape.mul_elem(picked, w);
            tape.sum_all(weighted)
        },
        |tape, p| {
            let logits = tape.param(p, ids[0]);
            let ls = tape.log_softmax(logits);
            let picked = tape.pick_per_row(ls, &picks);
            let w = tape.leaf(weights.clone());
            let weighted = tape.mul_elem(picked, w);
            tape.sum_all(weighted)
        },
        "log_softmax_pick",
    );
}

#[test]
fn log_softmax_pick_survives_extreme_logits() {
    // Large-magnitude logits stress the max-shift; fused and composed must
    // still agree bit for bit because they share the stable evaluation order.
    let mut params = Params::new();
    let id = params.add(
        "logits",
        Tensor::from_vec(
            3,
            4,
            vec![800.0, -800.0, 3.0, 2.5, 0.0, 0.0, 0.0, 0.0, -1e3, 1e3, 5.0, -5.0],
        ),
    );
    let picks = [2usize, 0, 1];
    assert_bitwise_equivalent(
        &params,
        |tape, p| {
            let logits = tape.param(p, id);
            let picked = tape.log_softmax_pick(logits, &picks);
            tape.sum_all(picked)
        },
        |tape, p| {
            let logits = tape.param(p, id);
            let ls = tape.log_softmax(logits);
            let picked = tape.pick_per_row(ls, &picks);
            tape.sum_all(picked)
        },
        "log_softmax_pick/extreme",
    );
}

#[test]
fn add_n_matches_chained_adds() {
    let (params, ids) = seeded_params(&[(2, 3), (2, 3), (2, 3), (2, 3)], 13);
    assert_bitwise_equivalent(
        &params,
        |tape, p| {
            let parts: Vec<Var> = ids.iter().map(|&id| tape.param(p, id)).collect();
            let total = tape.add_n(&parts);
            tape.sum_all(total)
        },
        |tape, p| {
            let parts: Vec<Var> = ids.iter().map(|&id| tape.param(p, id)).collect();
            let mut total = parts[0];
            for &part in &parts[1..] {
                total = tape.add(total, part);
            }
            tape.sum_all(total)
        },
        "add_n",
    );
}

#[test]
fn add_n_of_scalar_losses_sums_in_order() {
    // The single-backward update path folds per-episode scalar losses with
    // add_n; its value must equal the left-to-right running sum.
    let mut params = Params::new();
    let id = params.add("w", Tensor::scalar(0.3));
    let mut tape = Tape::new();
    let w = tape.param(&params, id);
    let losses: Vec<Var> = (0..5)
        .map(|i| {
            let s = tape.scale(w, 0.1 + i as f32);
            tape.sum_all(s)
        })
        .collect();
    let total = tape.add_n(&losses);
    let mut expect = 0.0f32;
    for &l in &losses {
        expect += tape.value(l).item();
    }
    assert_eq!(tape.value(total).item().to_bits(), expect.to_bits());
}
