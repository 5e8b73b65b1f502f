"""Acceptance gate: one test per criterion, one printed line each, with `pytest -m acceptance -v`.

Each check is written once, in the module test file that owns it, with its sample sizes and
tolerances; a gate test runs those module tests, so the gate and the module suite cannot drift
apart. The throttled transfer is the one check written here alone: it sleeps through a 4.6 s send
by design, and `test_transfer.test_throttle_pacing` paces only a short frame.
"""

import time

import pytest

import test_dct
import test_ecies
import test_henon
import test_metrics
import test_neural
import test_pipeline
from test_transfer import payload_frame, run_transfer

pytestmark = pytest.mark.acceptance


def test_henon_ground_truth():
    # (0, 0) -> (1, 0) -> (-0.4, 0.3)
    test_henon.test_step_from_origin()
    test_henon.test_second_step_written_order()


def test_permutation_suite():
    # 10 000 keyed bijections and bitwise round trips
    test_henon.test_shuffle_round_trip_bitwise()


def test_key_sensitivity():
    # 1e-9 in x0 moves at least 90 of 100 positions on average
    test_henon.test_key_sensitivity()


def test_ecies_suite(public_key, private_key):
    # 1000 round trips with the length law, 100 tamper bits caught
    test_ecies.test_round_trip_property(public_key, private_key)
    test_ecies.test_single_bit_tamper(public_key, private_key)


def test_crypto_layer_losslessness(public_key, private_key, sym_key):
    # 50 random images and keys decrypt to the codec's own reconstruction
    test_pipeline.test_crypto_layer_losslessness(public_key, private_key, sym_key)


def test_compression_ratio_structure(public_key, sym_key):
    # 65 536 pixels -> 100 elements, a 449-byte body
    test_pipeline.test_payload_size_law(public_key, sym_key)


def test_metrics_oracles():
    # ssim(x, x) = 1, psnr(mse = 1) = 48.1308 dB, checkerboard ssim against the reference
    test_metrics.test_ssim_self_is_one()
    test_metrics.test_psnr_examples()
    test_metrics.test_ssim_checkerboard_brute_force()


def test_dct_codec():
    # Parseval to 1e-9, full-rank exact, m = 100 PSNR within 0.1 dB of its prediction
    test_dct.test_parseval_random_images()
    test_dct.test_full_rank_round_trip_exact()
    test_dct.test_truncation_psnr_matches_parseval_prediction()


def test_neural_trainer():
    # gradcheck < 1e-4, overfit < 25%, deterministic
    test_neural.test_gradients_match_finite_differences()
    test_neural.test_single_image_overfit()
    test_neural.test_trainer_deterministic()


def test_gan_objective_value():
    # -2 ln 2 at 0.5 batches
    test_neural.test_gan_objective_values()


def test_figure1_trajectory():
    # 10 000 points inside |x| <= 1.5, |y| <= 0.45
    test_henon.test_trajectory_bounds()


def test_timing_report(public_key, private_key, sym_key):
    # a table-shaped CSV row, a 256x256 encryption within 2 s
    test_pipeline.test_timing_report(public_key, private_key, sym_key)


def test_transfer_acceptance():
    # the transfer arrives byte-identical, and a throttled send takes its size over its rate, within
    # 20% for the pacing and 0.3 s for the set-up
    frame = payload_frame(1132, bytes(1))  # 4589 bytes
    start = time.monotonic()
    assert run_transfer(frame, throttle=1000) == frame
    assert abs(time.monotonic() - start - len(frame) / 1000) <= 0.2 * len(frame) / 1000 + 0.3
