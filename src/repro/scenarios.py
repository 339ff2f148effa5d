"""Scenario registry: the workload axes the reproduction sweeps.

The paper's evaluation covers one slice of the scenario space — dense
8-bit convolutions on VGG/ResNet with the classifier head left out of
the timing study.  A :class:`Scenario` is one declarative cell of the
*opened* space:

* **model recipe x dataset** — any :data:`repro.experiments.common.MODEL_RECIPES`
  entry, including the depthwise-separable ``mobilenet_cifar10`` whose
  grouped convolutions lower to many short per-group GEMMs (and whose
  classifier head, like every recipe's, is a lowered 1x1 conv covered by
  TER simulation and fault injection);
* **per-layer bit widths** — mixed-precision quantization expressed as
  first-match-wins ``(pattern, n_bits)`` rules over layer names
  (``fnmatch`` patterns), resolved against the recipe's layers;
* **mapping strategies** and **PVTA corners** — which READ variants are
  measured and which corners are simulated / injected.

Named suites (:data:`SUITES`) bundle scenarios for one sweep:
``read-repro sweep --suite <name>`` plans every scenario's simulation
and injection jobs, deduplicates them across scenarios, and executes
them as one cached engine sweep (see :mod:`repro.experiments.sweep`).

The registry is deliberately declarative and hashable: everything that
affects a result is a plain value, so scenario-derived engine jobs stay
content-addressable and the hypothesis-driven conformance harness in
``tests/test_backend_conformance.py`` can draw random scenarios and
assert cross-backend/cross-runtime agreement per draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Dict, List, Sequence, Tuple

from .core.pipeline import MappingStrategy
from .errors import ConfigurationError, unknown_name_error
from .hw.variations import PAPER_CORNERS, TER_EVAL_CORNER, PvtaCondition

#: All strategies, in the figures' plotting order (mirrors
#: :data:`repro.experiments.common.ALL_STRATEGIES`, which cannot be
#: imported here without a package cycle).
_ALL_STRATEGIES = (
    MappingStrategy.BASELINE,
    MappingStrategy.REORDER,
    MappingStrategy.CLUSTER_THEN_REORDER,
)


@dataclass(frozen=True)
class Scenario:
    """One declarative cell of the scenario space.

    Attributes
    ----------
    name:
        Unique name within its suite (labels jobs and report sections).
    recipe:
        Model/dataset combination (validated against ``MODEL_RECIPES``
        when the scenario is materialized).
    strategies:
        READ variants measured (accepts strategy names or members).
    corners:
        PVTA corners every layer-TER simulation evaluates.
    inject_corners:
        Corners at which a full Eq.1 -> BER -> injection campaign runs
        per strategy (a subset of ``corners`` keeps suites affordable;
        the default is the TER evaluation corner).
    bits:
        Mixed-precision rules: ``(pattern, n_bits)`` pairs matched
        first-to-last against layer names with :func:`fnmatch.fnmatchcase`;
        unmatched layers use ``default_bits``.
    topk:
        Accuracy protocol of the injection campaigns.
    seed:
        Training/dataset seed of the underlying bundle.
    """

    name: str
    recipe: str
    strategies: Tuple[MappingStrategy, ...] = _ALL_STRATEGIES
    corners: Tuple[PvtaCondition, ...] = tuple(PAPER_CORNERS)
    inject_corners: Tuple[PvtaCondition, ...] = (TER_EVAL_CORNER,)
    bits: Tuple[Tuple[str, int], ...] = ()
    default_bits: int = 8
    topk: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        strategies = tuple(
            MappingStrategy.from_name(s) if isinstance(s, str) else s
            for s in self.strategies
        )
        object.__setattr__(self, "strategies", strategies)
        object.__setattr__(self, "corners", tuple(self.corners))
        object.__setattr__(self, "inject_corners", tuple(self.inject_corners))
        object.__setattr__(
            self, "bits", tuple((str(p), int(b)) for p, b in self.bits)
        )
        if not self.strategies:
            raise ConfigurationError(f"scenario {self.name}: need at least one strategy")
        if not self.corners:
            raise ConfigurationError(f"scenario {self.name}: need at least one corner")
        corner_names = {c.name for c in self.corners}
        for corner in self.inject_corners:
            if corner.name not in corner_names:
                raise ConfigurationError(
                    f"scenario {self.name}: injection corner {corner.name!r} "
                    "is not among the simulated corners"
                )
        for pattern, n_bits in self.bits:
            if not 2 <= n_bits <= 16:
                raise ConfigurationError(
                    f"scenario {self.name}: n_bits {n_bits} for {pattern!r} outside [2, 16]"
                )

    # ------------------------------------------------------------------ #
    def resolve_bits(self, layer_names: Sequence[str]) -> Dict[str, int]:
        """Resolve the bit-width rules against concrete layer names.

        First matching pattern wins; layers resolving to ``default_bits``
        are omitted (so equal effective precisions hash equally — see
        :func:`repro.experiments.common.canonical_bits`).

        A rule whose pattern matches *no* layer is a configuration error:
        a typo'd pattern would otherwise silently yield a uniform-
        precision sweep that still reports itself as mixed-precision.
        """
        resolved: Dict[str, int] = {}
        matched = [False] * len(self.bits)
        for layer in layer_names:
            for i, (pattern, n_bits) in enumerate(self.bits):
                if fnmatchcase(layer, pattern):
                    matched[i] = True
                    if n_bits != self.default_bits:
                        resolved[layer] = n_bits
                    break
        unmatched = [pattern for (pattern, _), hit in zip(self.bits, matched) if not hit]
        if unmatched:
            raise ConfigurationError(
                f"scenario {self.name}: bit rule pattern(s) "
                f"{', '.join(repr(p) for p in unmatched)} match no layer "
                f"(layers: {', '.join(layer_names)})"
            )
        return resolved

    def describe(self) -> Dict[str, object]:
        """Provenance record (manifest/report header material)."""
        return {
            "name": self.name,
            "recipe": self.recipe,
            "strategies": [s.value for s in self.strategies],
            "corners": [c.name for c in self.corners],
            "inject_corners": [c.name for c in self.inject_corners],
            "bits": [list(rule) for rule in self.bits],
            "default_bits": self.default_bits,
            "topk": self.topk,
            "seed": self.seed,
        }


#: Memo of :func:`layer_names_for_recipe`: building a throwaway float
#: model per lookup (He-init of every weight tensor) is pure waste when
#: a sweep resolves the same recipe's names once per phase.
_LAYER_NAME_CACHE: Dict[Tuple[str, float], List[str]] = {}


def layer_names_for_recipe(recipe: str, scale=None) -> List[str]:
    """Quantized-layer names of a recipe, without training it.

    Builds the (untrained) float model and lists every layer the
    quantizer lowers — feature convs, projection shortcuts and the
    classifier head — in module order.  Bit-width rules resolve against
    these names.  Memoized per (recipe, width).
    """
    # Imported lazily: repro.experiments imports this module's consumers.
    from .experiments.common import MODEL_RECIPES, get_scale
    from .nn.datasets import load_dataset
    from .nn.layers import Conv2d, Linear, SelfAttention
    from .nn.models import build_model

    if recipe not in MODEL_RECIPES:
        raise unknown_name_error("recipe", recipe, MODEL_RECIPES)
    scale = scale or get_scale()
    key = (recipe, scale.width)
    cached = _LAYER_NAME_CACHE.get(key)
    if cached is not None:
        return list(cached)
    model_name, dataset_name = MODEL_RECIPES[recipe]
    n_classes = load_dataset(dataset_name).spec.n_classes
    model = build_model(model_name, n_classes=n_classes, width=scale.width)
    names: List[str] = []
    for module in model.modules():
        if isinstance(module, (Conv2d, Linear)):
            names.append(module.name)
        elif isinstance(module, SelfAttention):
            # Runtime activation-activation GEMMs (QK^T, attention@V)
            # have no weight module, but the quantizer lowers them too.
            names.extend(module.dynamic_gemm_names)
    _LAYER_NAME_CACHE[key] = names
    return list(names)


# ---------------------------------------------------------------------- #
# Named suites
# ---------------------------------------------------------------------- #
#: The paper's own evaluation matrix, now head-inclusive: the four
#: Section V-A recipes, dense 8-bit, all strategies, all corners.
_PAPER_SUITE = tuple(
    Scenario(name=recipe, recipe=recipe, topk=3 if recipe == "vgg16_cifar100" else 1)
    for recipe in (
        "vgg16_cifar10",
        "resnet18_cifar10",
        "vgg16_cifar100",
        "resnet34_imagenet32",
    )
)

#: Depthwise-separable workload: grouped 3x3 + pointwise 1x1 GEMMs, the
#: short-reduction regime the dense suites never touch.
_MOBILE_SUITE = (
    Scenario(name="mobilenet", recipe="mobilenet_cifar10"),
)

#: Mixed precision over the dense recipes: front-loaded 8-bit features
#: with a narrow head, and an alternating-width ResNet.
_MIXED_SUITE = (
    Scenario(
        name="vgg16-taper",
        recipe="vgg16_cifar10",
        bits=(("conv0", 8), ("conv1", 8), ("conv2", 8), ("fc", 4), ("*", 6)),
    ),
    Scenario(
        name="resnet18-alt",
        recipe="resnet18_cifar10",
        bits=(("*.conv2", 4), ("*shortcut*", 8), ("fc", 6)),
    ),
)

#: Stress: every new axis at once — depthwise at 4 bits, and the
#: 20-class top-3 protocol on a narrow-head VGG.
_STRESS_SUITE = (
    Scenario(
        name="mobilenet-4bit",
        recipe="mobilenet_cifar10",
        bits=(("*", 4),),
    ),
    Scenario(
        name="vgg16-cifar100-head4",
        recipe="vgg16_cifar100",
        bits=(("fc", 4),),
        topk=3,
    ),
)

#: Transformer workload: a tiny single-head ViT whose attention GEMMs
#: (QK^T, attention@V) are runtime activation-activation products with
#: *signed* operand statistics — the regime where READ's single-zero-
#: crossing proof does not apply and applicability must be measured.
_TRANSFORMER_SUITE = (
    Scenario(name="mixer", recipe="mixer_cifar10"),
)

#: Named suites routed through ``read-repro sweep --suite <name>``.
SUITES: Dict[str, Tuple[Scenario, ...]] = {
    "paper": _PAPER_SUITE,
    "mobile": _MOBILE_SUITE,
    "mixed-precision": _MIXED_SUITE,
    "stress": _STRESS_SUITE,
    "transformer": _TRANSFORMER_SUITE,
}


def get_suite(name: str) -> Tuple[Scenario, ...]:
    """Look up a suite by name with the uniform unknown-name error."""
    try:
        return SUITES[name]
    except KeyError:
        raise unknown_name_error("suite", name, SUITES) from None


def suite_names() -> List[str]:
    """Registered suite names, sorted."""
    return sorted(SUITES)
