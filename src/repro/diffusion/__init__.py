"""Diffusion substrate: schedules, DDPM training, sampling, inpainting."""

from .ddpm import Ddpm, TrainResult, clips_to_model_space, model_space_to_clips
from .finetune import (
    FinetuneConfig,
    clone_ddpm,
    finetune,
    generate_prior_set,
    self_refine,
)
from .inpaint import SAMPLE_STEPS, InpaintConfig, inpaint, inpaint_packed
from .plan import SamplerPlan, sampler_plan
from .sampler import (
    SegmentedGenerator,
    ddim_sample,
    ddpm_sample,
    strided_timesteps,
)
from .schedule import NoiseSchedule, cosine_schedule, linear_schedule

__all__ = [
    "Ddpm",
    "FinetuneConfig",
    "InpaintConfig",
    "NoiseSchedule",
    "SAMPLE_STEPS",
    "SamplerPlan",
    "SegmentedGenerator",
    "TrainResult",
    "clips_to_model_space",
    "clone_ddpm",
    "cosine_schedule",
    "ddim_sample",
    "ddpm_sample",
    "finetune",
    "generate_prior_set",
    "inpaint",
    "inpaint_packed",
    "linear_schedule",
    "model_space_to_clips",
    "sampler_plan",
    "self_refine",
    "strided_timesteps",
]
