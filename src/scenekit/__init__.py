"""Scene classification toolkit: a self-contained CPU-scale pipeline.

Four-stage data augmentation (rotation expansion, random crop, random
erase, mixup), a small convolutional backbone, dual-stream multihead
attention pooling in place of global pooling, an MLP head trained with
a KL + L2 loss, direct-training and transfer-learning strategies, and
PROD late fusion of model ensembles. All gradients are computed by the
in-repo tape and verified against finite differences.
"""

from .attention import AttentionConfig, attention_pool, global_pool, multihead_attention
from .augment import (
    LabeledBatch,
    MixupConfig,
    center_crop,
    mixup_expand,
    random_crop,
    random_erase,
    rotate,
)
from .backbone import BackboneConfig, ConvStage, backbone_forward, conv2d
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .data import Dataset, DatasetError, decode_ppm, encode_ppm, load_dataset, one_hot, split
from .fusion import FusionInput, accuracy, predict_label, prod_fuse
from .gradcheck import finite_difference_check
from .head import HeadConfig, LossConfig, kl_loss, mlp_forward
from .model import ModelConfig, desk_model_config, init_params, model_forward
from .params import ModelParams
from .synthetic import TextureSpec, four_class_dataset, make_texture_dataset
from .tensor import (
    AutodiffError,
    NumericError,
    ShapeError,
    Tensor,
    backward,
    concat,
    matmul,
    no_grad,
    pool_axis,
    softmax_last,
)
from .trainer import (
    OptimizerState,
    TrainConfig,
    TrainHistory,
    TrainingDivergedError,
    evaluate,
    optimizer_step,
    train,
)

__version__ = "0.1.0"
