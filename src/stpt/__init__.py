"""Spatio-temporal action detection, end to end on the CPU.

A hierarchical four-stage attention backbone over video clips (windowed local
attention early, global attention late, both with reduced-resolution keys and
values), a temporal feature pyramid with anchor-free detection heads, detection
losses with hand-derived gradients, soft-NMS plus mAP evaluation, and an
analytic cost model. Deterministic by construction: seeded weight generation,
no framework dependencies beyond numpy/scipy.
"""

from .attention import (AttentionParams, PartitionRecord, ReductionSpec, WindowSpec,
                        gsta_forward, lsta_forward, merge_windows, partition_windows,
                        reduce_kv)
from .backbone import (BackboneOutput, BlockWeights, ModelConfig, ModelWeights,
                       StageSpec, StageWeights, backbone_forward, default_config,
                       init_model_weights, patch_embed, stpt_block, toy_config)
from .config import RunConfig, load_run_config, write_default_config
from .costs import AttentionCost, CostLine, CostReport, attention_cost, model_cost
from .errors import ConfigError, InputError, NumericError, StptError
from .evaluation import (EvalConfig, EvalResult, GroundTruthInstance, average_precision,
                         eval_profile, evaluate, oracle_predictions, read_ground_truth,
                         render_map_table, soft_nms, synth_dataset, tiou,
                         write_ground_truth)
from .heads import (CoarsePrediction, DetectionCandidate, DetectionConfig,
                    FeaturePyramid, HeadWeights, RefinedPrediction, build_pyramid,
                    coarse_segments, combine_scores, decode, init_head_weights,
                    predict_coarse, pyramid_lengths, read_candidates, refine,
                    refine_segment, write_candidates)
from .losses import (LossBreakdown, LossConfig, MatchedTargets, combine_losses,
                     focal_loss, gradient_check_report, l1_offset_loss, loss_profile,
                     match_anchors, quality_loss, segment_tiou, tiou_loss, total_loss)
from .tensor import (ClipTensor, Conv3DWeights, LinearWeights, Rng, check_finite, conv3d,
                     finite_diff_grad, gelu, gradcheck, layer_norm, linear,
                     read_bundle, read_tensor, sigmoid, softmax, softplus,
                     write_bundle, write_tensor)

__version__ = "0.1.0"
