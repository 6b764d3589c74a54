"""Image sequences with the paper's fitted size distribution."""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

#: Paper defaults: 180 images/server, Normal(128 KB, 25 %).
DEFAULT_IMAGES_PER_SERVER = 180
DEFAULT_MEAN_SIZE = 128 * 1024.0
DEFAULT_REL_STD = 0.25
#: Truncation floor: no image smaller than 4 KB (a normal tail guard).
MIN_IMAGE_BYTES = 4 * 1024.0


def sample_image_sizes(
    count: int,
    rng: np.random.Generator,
    mean_size: float = DEFAULT_MEAN_SIZE,
    rel_std: float = DEFAULT_REL_STD,
) -> np.ndarray:
    """Draw ``count`` image sizes (bytes) from the paper's distribution."""
    if count < 0:
        raise ValueError(f"negative count {count!r}")
    if mean_size <= 0:
        raise ValueError(f"mean_size must be positive, got {mean_size!r}")
    if rel_std < 0:
        raise ValueError(f"rel_std must be non-negative, got {rel_std!r}")
    sizes = rng.normal(mean_size, mean_size * rel_std, size=count)
    return np.maximum(sizes, MIN_IMAGE_BYTES)


@dataclass(frozen=True)
class ImageWorkload:
    """Per-server image sequences for one simulation run.

    ``sizes[server_index][i]`` is the byte size of server ``i``-th image.
    """

    sizes: tuple[tuple[float, ...], ...]
    mean_size: float = DEFAULT_MEAN_SIZE
    rel_std: float = DEFAULT_REL_STD

    @classmethod
    def generate(
        cls,
        num_servers: int,
        images_per_server: int = DEFAULT_IMAGES_PER_SERVER,
        mean_size: float = DEFAULT_MEAN_SIZE,
        rel_std: float = DEFAULT_REL_STD,
        seed: int = 0,
    ) -> "ImageWorkload":
        """Sample a workload deterministically from ``seed``."""
        if num_servers < 1:
            raise ValueError(f"need at least one server, got {num_servers!r}")
        if images_per_server < 1:
            raise ValueError(
                f"need at least one image per server, got {images_per_server!r}"
            )
        rng = np.random.default_rng(seed)
        sizes = tuple(
            tuple(
                float(s)
                for s in sample_image_sizes(
                    images_per_server, rng, mean_size, rel_std
                )
            )
            for _ in range(num_servers)
        )
        return cls(sizes=sizes, mean_size=mean_size, rel_std=rel_std)

    @property
    def num_servers(self) -> int:
        return len(self.sizes)

    @property
    def images_per_server(self) -> int:
        return len(self.sizes[0]) if self.sizes else 0

    def size_of(self, server_index: int, iteration: int) -> float:
        """Byte size of one image."""
        return self.sizes[server_index][iteration]
