#include "vit/sc_inference.h"

#include <memory>

#include "runtime/engine.h"
#include "runtime/registry.h"
#include "vit/servable.h"
#include "vit/train.h"

namespace ascend::vit {

double evaluate_sc(VisionTransformer& model, const Dataset& data, const ScInferenceConfig& cfg,
                   int batch_size) {
  auto registry = std::make_shared<runtime::ModelRegistry>();
  registry->publish(make_sc_servable(model, cfg));
  runtime::InferenceEngine engine(registry);
  return evaluate(engine, data, batch_size);
}

}  // namespace ascend::vit
