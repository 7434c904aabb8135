from .layers import (
    Adam,
    Dropout,
    GruLayer,
    Layer,
    TcnBlock,
    TimeDistributedDense,
    UpsampleRepeat,
    mse_loss,
)
from .models import (
    Model,
    RegressionModel,
    SynthesisModel,
    build_regression_model,
    build_synthesis_model,
    load_model,
    restore_model,
)
from .training import TrainConfig, TrainHistory, finite_diff_grad_check, train

__all__ = [
    "Adam", "Dropout", "GruLayer", "Layer", "TcnBlock", "TimeDistributedDense",
    "UpsampleRepeat", "mse_loss", "Model", "RegressionModel", "SynthesisModel",
    "build_regression_model", "build_synthesis_model", "load_model", "restore_model",
    "TrainConfig", "TrainHistory",
    "finite_diff_grad_check", "train",
]
