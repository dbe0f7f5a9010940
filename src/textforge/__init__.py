"""Config driven text classification and tagging with static-graph export."""

from . import errors
from .components import DOC_TASK, JOINT_TASK, WORD_TASK
from .exporter import export_model, export_pipeline, verify_equivalence
from .graph import Executor, StaticGraph, load_graph, run, save_graph
from .pipeline import Pipeline, instantiate_task, restore_pipeline
from .registry import parse_task_config, serialize_task_config
from .trainer import load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "DOC_TASK", "WORD_TASK", "JOINT_TASK",
    "errors",
    "parse_task_config", "serialize_task_config",
    "Pipeline", "instantiate_task", "restore_pipeline",
    "train", "load_checkpoint", "save_checkpoint",
    "export_model", "export_pipeline", "verify_equivalence",
    "StaticGraph", "Executor", "load_graph", "save_graph", "run",
    "__version__",
]
