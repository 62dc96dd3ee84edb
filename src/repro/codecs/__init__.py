"""Codec substrates (built from scratch, see DESIGN.md section 6).

The paper's streamlets rely on standard codecs (GIF/JPEG transcoding, text
compression, encryption, PostScript) that it treats as black boxes.  We
implement workalikes from first principles so every byte transformation in
the pipeline is exercised by our own code:

* :mod:`repro.codecs.rle` / :mod:`repro.codecs.huffman` /
  :mod:`repro.codecs.lz77` — building blocks,
* :mod:`repro.codecs.textcodec` — the Text Compressor's codec
  (LZSS + canonical Huffman with a raw-fallback container),
* :mod:`repro.codecs.cipher` — a keyed stream cipher (RC4-class) for the
  encryption streamlets,
* :mod:`repro.codecs.imagefmt` — synthetic "GIF-like" (palette) and
  "JPEG-like" (block-DCT) raster formats plus downsampling/grayscale ops,
* :mod:`repro.codecs.psdoc` — a PostScript-like structured document model
  for the postscript-to-text streamlet.
"""

import importlib

#: where each public name lives; :func:`__getattr__` imports the module the
#: first time the name is read, so a deploy that needs the text codec loads
#: LZSS and Huffman, not numpy and the image formats
_EXPORTS = {
    "rle_encode": "repro.codecs.rle",
    "rle_decode": "repro.codecs.rle",
    "huffman_encode": "repro.codecs.huffman",
    "huffman_decode": "repro.codecs.huffman",
    "lzss_compress": "repro.codecs.lz77",
    "lzss_decompress": "repro.codecs.lz77",
    "TextCodec": "repro.codecs.textcodec",
    "StreamCipher": "repro.codecs.cipher",
    "ImageRaster": "repro.codecs.imagefmt",
    "encode_gif": "repro.codecs.imagefmt",
    "decode_gif": "repro.codecs.imagefmt",
    "encode_jpeg": "repro.codecs.imagefmt",
    "decode_jpeg": "repro.codecs.imagefmt",
    "downsample": "repro.codecs.imagefmt",
    "quantize_grays": "repro.codecs.imagefmt",
    "PsDocument": "repro.codecs.psdoc",
    "PsOp": "repro.codecs.psdoc",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    """Resolve a public name on first access (PEP 562) and cache it."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.codecs' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
