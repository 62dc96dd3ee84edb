"""Image distillation streamlets (sections 4.3 and 7.5).

All three operate on encoded image payloads (the MGIF/MJPG containers of
:mod:`repro.codecs.imagefmt`) or on in-memory
:class:`~repro.codecs.imagefmt.ImageRaster` payloads:

* **ImageDownSample** — "lossy compression of an image by reducing the
  sample rate"; factor from ``ctx.params['factor']`` (default 2);
* **MapTo16Grays** — "reducing images to 16 grays to support shallow
  grayscale displays";
* **Gif2Jpeg** — "converting incoming image messages into Jpeg format";
  quality from ``ctx.params['quality']`` (default 60).

These transformations are lossy-by-design, so they have no client peers;
their payoff is the size reduction measured in Figure 7-7.

The image codec (and numpy under it) is imported when one of them is
instantiated, i.e. when a composition naming it is deployed, so a gateway
that serves no image stream never loads either.
"""

from __future__ import annotations

from types import ModuleType
from typing import TYPE_CHECKING

from repro.errors import CodecError
from repro.mcl import astnodes as ast
from repro.mime.mediatype import IMAGE, IMAGE_GIF, IMAGE_JPEG, MediaType
from repro.mime.message import MimeMessage
from repro.runtime.streamlet import Emission, Streamlet, StreamletContext
from repro.streamlets.customize import FACTOR_HEADER, QUALITY_HEADER, header_param

if TYPE_CHECKING:
    from repro.codecs.imagefmt import ImageRaster


def _ports(in_type: MediaType, out_type: MediaType) -> tuple[ast.PortDecl, ...]:
    return (
        ast.PortDecl(ast.PortDirection.IN, "pi", in_type),
        ast.PortDecl(ast.PortDirection.OUT, "po", out_type),
    )


IMG_DOWN_SAMPLE_DEF = ast.StreamletDef(
    name="img_down_sample",
    ports=_ports(IMAGE, IMAGE),
    kind=ast.StreamletKind.STATELESS,
    library="image/down_sample",
    description="lossy compression of an image by reducing the sample rate",
)

MAP_TO_16_GRAYS_DEF = ast.StreamletDef(
    name="map_to_16_grays",
    ports=_ports(IMAGE, IMAGE),
    kind=ast.StreamletKind.STATELESS,
    library="image/map_to_16_grays",
    description="reduce images to 16 grays to support shallow grayscale displays",
)

GIF2JPEG_DEF = ast.StreamletDef(
    name="gif2jpeg",
    # wildcard input: the switch's image branch is typed image/*, and the
    # decoder accepts either container (re-encoding to JPEG regardless)
    ports=_ports(IMAGE, IMAGE_JPEG),
    kind=ast.StreamletKind.STATELESS,
    library="image/gif2jpeg",
    description="convert incoming image messages into Jpeg format",
)


class _ImageStreamlet(Streamlet):
    """Decode and re-encode through :mod:`repro.codecs.imagefmt`, imported
    when the streamlet is instantiated."""

    @staticmethod
    def load() -> ModuleType:
        from repro.codecs import imagefmt

        return imagefmt

    def __init__(self, instance_id: str, definition: ast.StreamletDef):
        super().__init__(instance_id, definition)
        self._fmt = self.load()

    def _decode(self, message: MimeMessage) -> tuple[ImageRaster, str]:
        """Decode the payload; returns (raster, container: 'gif'|'jpeg'|'raw')."""
        body = message.body
        if isinstance(body, self._fmt.ImageRaster):
            return body, "raw"
        if isinstance(body, bytes | bytearray):
            data = bytes(body)
            if data[:4] == b"MGIF":
                return self._fmt.decode_gif(data), "gif"
            if data[:4] == b"MJPG":
                return self._fmt.decode_jpeg(data), "jpeg"
        raise CodecError(
            f"image streamlet received undecodable {message.content_type} payload"
        )

    def _encode(
        self, message: MimeMessage, raster: ImageRaster, container: str, quality: int
    ) -> None:
        if container == "gif":
            message.set_body(self._fmt.encode_gif(raster), IMAGE_GIF)
        elif container == "jpeg":
            message.set_body(self._fmt.encode_jpeg(raster, quality), IMAGE_JPEG)
        else:
            message.set_body(raster)


class ImageDownSample(_ImageStreamlet):
    """Reduce image sample rate by ``factor`` (lossy distillation)."""
    def process(self, port: str, message: MimeMessage, ctx: StreamletContext) -> Emission:
        # per-message customizer annotations override the deployment default
        factor = int(header_param(message, FACTOR_HEADER, ctx.params.get("factor", 2)))
        raster, container = self._decode(message)
        quality = int(header_param(message, QUALITY_HEADER, ctx.params.get("quality", 60)))
        self._encode(message, self._fmt.downsample(raster, factor), container, quality)
        return [("po", message)]


class MapTo16Grays(_ImageStreamlet):
    """Quantise images to ``levels`` grays for shallow displays."""
    def process(self, port: str, message: MimeMessage, ctx: StreamletContext) -> Emission:
        levels = int(ctx.params.get("levels", 16))
        raster, container = self._decode(message)
        quality = int(ctx.params.get("quality", 60))
        self._encode(message, self._fmt.quantize_grays(raster, levels), container, quality)
        return [("po", message)]


class Gif2Jpeg(_ImageStreamlet):
    """Re-encode any decodable image as JPEG-like (the §7.5 transcoder)."""
    def process(self, port: str, message: MimeMessage, ctx: StreamletContext) -> Emission:
        quality = int(header_param(message, QUALITY_HEADER, ctx.params.get("quality", 60)))
        raster, _container = self._decode(message)
        message.set_body(self._fmt.encode_jpeg(raster, quality), IMAGE_JPEG)
        return [("po", message)]
