#pragma once

/**
 * @file serialize.hpp
 * Text codec for flat parameter vectors: the count on the first line, then
 * one value per line at precision 17 in the classic locale. ArtifactDb
 * stores model checkpoints in it through io::atomicWriteFile.
 */

#include <string>
#include <vector>

namespace pruner {

/** Encode a flat parameter vector (count, then one value per line). */
std::string encodeParams(const std::vector<double>& flat);

/** Decode encodeParams() text. Throws FatalError on a malformed count, a
 *  count above 2^28 or larger than the text can hold, a truncated value
 *  list, or trailing data. */
std::vector<double> decodeParams(const std::string& text);

} // namespace pruner
